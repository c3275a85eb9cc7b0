package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/uarch"
)

// tinyArgs keeps every run to a fraction of a second.
var tinyArgs = []string{"-app", "ssearch34", "-seqs", "4", "-cap", "50000"}

// runOK runs the command in-process and fails the test unless it
// exits 0; it returns stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(append([]string(nil), tinyArgs...), args...), &stdout, &stderr); code != 0 {
		t.Fatalf("simulate %v: exit %d, stderr:\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// TestSweepMatchesSinglesAndLab: a -widths sweep (one capture
// broadcast to three pipelines) prints exactly the three single -width
// runs joined by blank lines, and each block is what the report
// renders from experiments.Lab's captured-then-replayed trace at the
// same scale. The two capture-once paths are each other's oracle.
func TestSweepMatchesSinglesAndLab(t *testing.T) {
	widths := []int{4, 8, 16}
	sweep := runOK(t, "-widths", "4,8,16")

	singles := make([]string, len(widths))
	for i, w := range widths {
		singles[i] = runOK(t, "-width", fmt.Sprint(w))
	}
	if want := strings.Join(singles, "\n"); sweep != want {
		t.Fatalf("-widths 4,8,16 differs from three -width runs:\n--- sweep\n%s--- singles\n%s", sweep, want)
	}

	mem := uarch.MemoryConfigs()[0]
	cfgs := make([]uarch.Config, len(widths))
	for i, w := range widths {
		cfgs[i] = uarch.ConfigByWidth(w).WithMemory(mem).WithPredictor("gp", 16384)
		cfgs[i].Mem.DL1.Latency = 1
	}
	lab := experiments.NewLab(experiments.Scale{Seqs: 4, TraceCap: 50_000})
	for i, res := range lab.SimulateSweep("ssearch34", cfgs) {
		var want bytes.Buffer
		report(&want, "ssearch34", cfgs[i], mem.Name, "gp", 16384, res, 10)
		if singles[i] != want.String() {
			t.Errorf("width %d: Broadcast run differs from Lab replay:\n--- simulate\n%s--- lab\n%s", widths[i], singles[i], want.String())
		}
	}
}

// TestBadFlagsExitCleanly: configurations the model cannot build are
// refused before any simulation starts, with a non-zero exit and a
// one-line message rather than a panic.
func TestBadFlagsExitCleanly(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-width", "5"}, 1, `simulate: bad -width entry "5"`},
		{[]string{"-widths", "4,5"}, 1, `simulate: bad -widths entry "5"`},
		{[]string{"-bp", "nope"}, 1, `simulate: bpred: unknown strategy "nope"`},
		{[]string{"-app", "nope"}, 1, `simulate: workloads: unknown workload "nope"`},
		{[]string{"-mem", "5"}, 1, "simulate: -mem must be 0..4"},
		{[]string{"-seqs", "-1"}, 1, "simulate: -seqs must be >= 0"},
		{[]string{"-traumas", "-1"}, 1, "simulate: -traumas must be >= 0"},
		{[]string{"-tracefile", "x.trc"}, 2, "flag provided but not defined: -tracefile"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := func() (code int) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("panicked: %v", p)
					}
				}()
				return run(append(append([]string(nil), tinyArgs...), tc.args...), &stdout, &stderr)
			}()
			if code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
			if !strings.HasPrefix(stderr.String(), tc.msg) {
				t.Errorf("stderr %q, want prefix %q", stderr.String(), tc.msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("printed a report for a refused configuration:\n%s", stdout.String())
			}
		})
	}
}
