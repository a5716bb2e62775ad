package core_test

import (
	"context"
	"runtime"
	"testing"

	"crve/internal/core"
	"crve/internal/regress"
	"crve/internal/testcases"
)

// TestPairAllocatesLessThanRecordReplay guards the lockstep pair's point:
// aligning against the live RTL signals must allocate at most half the
// bytes of recording the RTL run and replaying it under the BCA run. Both
// sides are measured in this one test, so the bound is a ratio that does
// not depend on the machine.
func TestPairAllocatesLessThanRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ratio needs full runs")
	}
	cfg := regress.StandardMatrix()[0]
	tc, err := testcases.ByName("back_to_back")
	if err != nil {
		t.Fatal(err)
	}
	const seed, reps = 7, 3
	bytesOf := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	ctx := context.Background()
	pair := bytesOf(func() error {
		_, err := core.RunPairOpt(cfg, tc, seed, core.RunOptions{})
		return err
	})
	replay := bytesOf(func() error {
		rres, err := core.RunTestCtx(ctx, cfg, core.RTLView, tc, seed, core.RunOptions{RecordWave: true})
		if err != nil {
			return err
		}
		_, err = core.RunTestCtx(ctx, cfg, core.BCAView, tc, seed, core.RunOptions{AlignWith: rres.Wave})
		return err
	})
	t.Logf("lockstep pair %d B, record+replay %d B (%.2fx)", pair/reps, replay/reps, float64(pair)/float64(replay))
	if 2*pair > replay {
		t.Errorf("lockstep pair allocates %d B, more than half of record+replay's %d B", pair/reps, replay/reps)
	}
}
