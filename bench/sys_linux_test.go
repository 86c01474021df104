//go:build linux && amd64

package main

import (
	"runtime"
	"testing"
)

func TestPinProcessAndRestore(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before, err := allowedCPUs()
	if err != nil {
		t.Skipf("no affinity here: %v", err)
	}
	last := before[len(before)-1]
	if err := pinProcess(last); err != nil {
		t.Skipf("affinity refused: %v", err)
	}
	pinned, err := allowedCPUs()
	if err != nil || len(pinned) != 1 || pinned[0] != last {
		t.Errorf("pinned to %d: allowed %v, %v", last, pinned, err)
	}
	if err := pinProcess(before...); err != nil {
		t.Fatal(err)
	}
	after, err := allowedCPUs()
	if err != nil || len(after) != len(before) {
		t.Errorf("restored: allowed %v, %v; before %v", after, err, before)
	}
}
