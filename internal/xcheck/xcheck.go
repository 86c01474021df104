// Top-level runner: one scenario on both planes, compared.
package xcheck

import "fmt"

// RunScenario executes the scenario on the simulator and the loopback
// overlay deployment and returns the scored comparison.
func RunScenario(sc Scenario) (*Comparison, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	sim, err := runSim(sc)
	if err != nil {
		return nil, fmt.Errorf("xcheck: %s: sim plane: %w", sc.Name, err)
	}
	real, err := runReal(sc)
	if err != nil {
		return nil, fmt.Errorf("xcheck: %s: real plane: %w", sc.Name, err)
	}
	return Compare(sc, sim, real), nil
}
