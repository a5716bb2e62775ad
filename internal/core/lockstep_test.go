package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"crve/internal/bca"
)

// pollCtx is a context that reports cancellation from its n-th Err poll on,
// so a test can cancel a run at a known cycle.
type pollCtx struct {
	context.Context
	polls, cancelAt int
	done            chan struct{}
}

func newPollCtx(cancelAt int) *pollCtx {
	return &pollCtx{Context: context.Background(), cancelAt: cancelAt, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{}       { return c.done }
func (c *pollCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// pairViews builds the two views of a clean pair, ready to step.
func pairViews(t *testing.T) (*viewRun, *viewRun) {
	t.Helper()
	c, tst := cfg(2, 2), smokeTest()
	rv, err := newViewRun(c, RTLView, tst, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bv, err := newViewRun(c, BCAView, tst, 1, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return rv, bv
}

func TestRunPairCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPairCtx(ctx, cfg(2, 2), smokeTest(), 1, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pair returned %v, want context.Canceled", err)
	}
	if _, err := RunTestCtx(ctx, cfg(2, 2), BCAView, smokeTest(), 1, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	// An already-cancelled context simulates nothing.
	rv, bv := pairViews(t)
	if err := lockstep(ctx, nil, rv, bv); !errors.Is(err, context.Canceled) {
		t.Fatalf("lockstep returned %v, want context.Canceled", err)
	}
	if rv.sm.Cycle() != 0 || bv.sm.Cycle() != 0 {
		t.Errorf("cancelled before the first cycle, yet simulated %d/%d cycles", rv.sm.Cycle(), bv.sm.Cycle())
	}
}

func TestRunPairCtxCancelMidRun(t *testing.T) {
	// The loop polls at cycles 0 and 64; the second poll reports the
	// cancellation, and no cycle runs after it.
	rv, bv := pairViews(t)
	if err := lockstep(newPollCtx(2), nil, rv, bv); !errors.Is(err, context.Canceled) {
		t.Fatalf("lockstep returned %v, want context.Canceled", err)
	}
	if rv.sm.Cycle() != 64 || bv.sm.Cycle() != 64 {
		t.Errorf("cancelled at cycle 64, views ran %d/%d cycles", rv.sm.Cycle(), bv.sm.Cycle())
	}
	if _, err := RunPairCtx(newPollCtx(2), cfg(2, 2), smokeTest(), 1, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pair cancelled mid-run returned %v, want context.Canceled", err)
	}
}

func TestRunPairMatchesSeparateRuns(t *testing.T) {
	// The lockstep pair steps each view through the same protocol as a
	// single-view run: drain, tail, cycle counts and verdicts agree.
	c, tst := cfg(2, 2), smokeTest()
	pair, err := RunPair(c, tst, 4, bca.Bugs{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*RunResult{pair.RTL, pair.BCA} {
		solo, err := RunTest(c, v.View, tst, 4, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if solo.Cycles != v.Cycles || solo.Drained != v.Drained || solo.Transactions != v.Transactions {
			t.Errorf("%s: pair ran %d cycles (drained %v, %d txs), solo %d (drained %v, %d txs)",
				v.View, v.Cycles, v.Drained, v.Transactions, solo.Cycles, solo.Drained, solo.Transactions)
		}
	}
}
