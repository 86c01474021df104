package xcheck

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSimGolden pins the simulator plane's structured outcome for both
// builtin scenarios: runSim's PlaneResult, as JSON, must match the
// files under testdata/ byte for byte (same seed, same run).
func TestSimGolden(t *testing.T) {
	for _, name := range []string{"baseline", "flood"} {
		t.Run(name, func(t *testing.T) {
			sc, _ := Builtin(name)
			res, err := runSim(sc.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			file := filepath.Join("testdata", "sim_"+name+".json")
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("sim plane differs from %s:\n--- got ---\n%s\n--- want ---\n%s", file, got, want)
			}
		})
	}
}
