module tva/bench

go 1.22

require tva v0.0.0

replace tva => ../
