package main

import (
	"strings"
	"testing"
)

// TestStressShort runs the chaos harness briefly so `go test -race
// ./...` exercises the full eviction/singleflight/cancellation
// machinery on every CI run, not just in the dedicated stress job.
func TestStressShort(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	err := run([]string{
		"-duration", "700ms",
		"-grids", "4",
		"-resident", "2",
		"-level", "4",
		"-load-delay", "5ms",
		"-churn", "10",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStressHotTailBound asserts the tentpole property end to end:
// with loads inflated to 25ms, the hot grid's median stays far below
// the load time because cold loads no longer serialize the fast path.
func TestStressHotTailBound(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	err := run([]string{
		"-duration", "1200ms",
		"-grids", "4",
		"-resident", "2",
		"-level", "4",
		"-load-delay", "25ms",
		"-assert-hot-p50", "20ms",
		"-cancellers", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosModesShort runs each other mode briefly, each with every
// fault of its schedule firing inside the run.
func TestChaosModesShort(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	for _, mode := range []string{"-shard-chaos", "-swap-chaos", "-store-chaos"} {
		t.Run(mode[1:], func(t *testing.T) {
			if err := run([]string{mode, "-duration", "1s"}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunFailsWhenScheduleDidNotRun: a run whose -duration ends before
// its traffic and fault schedule fails as "did not run" in every mode,
// naming its seed, instead of passing or reporting a leak.
func TestRunFailsWhenScheduleDidNotRun(t *testing.T) {
	for _, mode := range []string{"", "-shard-chaos", "-swap-chaos", "-store-chaos"} {
		args := []string{"-duration", "0"}
		if mode != "" {
			args = append(args, mode)
		}
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "did not run") || !strings.Contains(err.Error(), "seed 1:") {
			t.Errorf("%s -duration 0: err = %v, want a seed-1 \"did not run\" failure", mode, err)
		}
	}
}

// TestScheduleReplaysFromSeed: the fault schedule and the remote's
// inject decisions are pure functions of their inputs, so a seed
// replays its faults and another seed draws others.
func TestScheduleReplaysFromSeed(t *testing.T) {
	inject := func(seed int64) string {
		var b strings.Builder
		for attempt := uint64(1); attempt <= 200; attempt++ {
			d, fail := injected(seed, "0123456789abcdef", attempt)
			b.WriteString(d.String())
			if fail {
				b.WriteByte('!')
			}
		}
		return b.String()
	}
	for seed := int64(1); seed <= 5; seed++ {
		if a, b := newSchedule(seed), newSchedule(seed); a != b {
			t.Errorf("seed %d: schedules %+v and %+v differ", seed, a, b)
		}
		if a, b := newSchedule(seed), newSchedule(seed+1); a == b {
			t.Errorf("seeds %d and %d draw the same schedule %+v", seed, seed+1, a)
		}
		if a, b := inject(seed), inject(seed); a != b {
			t.Errorf("seed %d: inject decisions differ between calls", seed)
		}
		if inject(seed) == inject(seed+1) {
			t.Errorf("seeds %d and %d draw the same inject decisions", seed, seed+1)
		}
	}
	// About 5 % of attempts fail.
	fails := strings.Count(inject(1), "!")
	if fails < 2 || fails > 25 {
		t.Errorf("%d of 200 attempts failed, want about 10", fails)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-grids", "1"}); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Fatalf("err = %v, want grid-count validation error", err)
	}
}
