package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/topology"
)

// dutyInstance builds a duty-cycle paper instance — the system with the
// widest approximation-to-optimal gap, so the improver has real headroom.
func dutyInstance(t testing.TB, n int, seed uint64, r int) *core.Instance {
	t.Helper()
	dep, err := topology.Generate(topology.PaperConfig(n), seed)
	if err != nil {
		t.Fatal(err)
	}
	wake := dutycycle.NewUniform(n, r, seed^0xA5, 0)
	in := core.Async(dep.G, dep.Source, wake, 0)
	return &in
}

// TestPlanImproveColdSync: a cold miss with a budget spends it
// synchronously — the very first answer is already tighter than the raw
// approximation, published as Generation 0 with Improved set.
func TestPlanImproveColdSync(t *testing.T) {
	in := dutyInstance(t, 120, 1, 10)

	// Reference: what the raw approximation serves without a budget.
	raw := New(Config{Workers: 1})
	defer raw.Close()
	rawResp, err := raw.Plan(context.Background(), WorkloadRequest{Instance: in, Scheduler: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if rawResp.Result.Improved || rawResp.Result.Generation != 0 {
		t.Fatalf("budget-0 plan marked improved: %+v", rawResp.Result)
	}

	s := New(Config{Workers: 1})
	defer s.Close()
	resp, err := s.Plan(context.Background(), WorkloadRequest{Instance: in, Scheduler: "baseline", ImproveBudget: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("first request reported a hit")
	}
	res := resp.Result
	if !res.Improved || res.Generation != 0 {
		t.Fatalf("cold sync improve: Improved=%v Generation=%d", res.Improved, res.Generation)
	}
	if res.Schedule.End() >= rawResp.Result.Schedule.End() {
		t.Fatalf("sync improve did not tighten: raw end %d, improved end %d",
			rawResp.Result.Schedule.End(), res.Schedule.End())
	}
	if res.PA != res.Schedule.End() {
		t.Fatalf("PA %d out of sync with schedule end %d", res.PA, res.Schedule.End())
	}
	if err := res.Schedule.Validate(*in); err != nil {
		t.Fatalf("served improved schedule invalid: %v", err)
	}
	m := s.Metrics()
	if m.Improvements == 0 || m.ImproveSlotsSaved == 0 || m.Generations[0] == 0 {
		t.Fatalf("improve metrics empty: %+v", m)
	}
}

// TestPlanImproveBackground: warm hits with a budget are served instantly
// from the cache and upgraded in the background, re-published under the
// same digest with an advancing generation.
func TestPlanImproveBackground(t *testing.T) {
	in := dutyInstance(t, 120, 2, 10)
	s := New(Config{Workers: 2, ImproveWorkers: 1})
	defer s.Close()
	ctx := context.Background()

	// Cold fill WITHOUT a budget: the cache holds the raw approximation.
	cold, err := s.Plan(ctx, WorkloadRequest{Instance: in, Scheduler: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	rawEnd := cold.Result.Schedule.End()

	// Warm hit with a budget serves the cached plan as-is and enqueues the
	// upgrade; poll until a background publication lands.
	deadline := time.Now().Add(10 * time.Second)
	var got *core.Result
	for {
		resp, err := s.Plan(ctx, WorkloadRequest{Instance: in, Scheduler: "baseline", ImproveBudget: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatal("warm request missed")
		}
		if resp.Result.Generation > 0 {
			got = resp.Result
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background upgrade after 10s: %+v", s.Metrics())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !got.Improved || got.Schedule.End() >= rawEnd {
		t.Fatalf("background upgrade bogus: gen %d improved %v end %d (raw %d)",
			got.Generation, got.Improved, got.Schedule.End(), rawEnd)
	}
	if err := got.Schedule.Validate(*in); err != nil {
		t.Fatalf("upgraded schedule invalid: %v", err)
	}
	m := s.Metrics()
	if m.ImproveQueued == 0 || m.Improvements == 0 {
		t.Fatalf("background metrics empty: %+v", m)
	}
}

// TestConcurrentPlanAndUpgrade is the acceptance race test: 64 goroutines
// hammer Plan on one digest while the background pool re-publishes
// upgrades under it. Every reader asserts the (generation, end-slot) pair
// it observes is monotone — generation never moves backwards, the plan
// never worsens. Run under -race in CI.
func TestConcurrentPlanAndUpgrade(t *testing.T) {
	in := dutyInstance(t, 150, 3, 10)
	s := New(Config{Workers: 4, ImproveWorkers: 2, CacheCapacity: 1 << 12})
	defer s.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastGen, lastEnd := -1, int(^uint(0)>>1)
			for i := 0; i < 30; i++ {
				resp, err := s.Plan(ctx, WorkloadRequest{Instance: in, Scheduler: "baseline", ImproveBudget: 2 * time.Millisecond})
				if err != nil {
					errc <- err
					return
				}
				res := resp.Result
				if res.Generation < lastGen {
					t.Errorf("generation regressed %d → %d", lastGen, res.Generation)
					return
				}
				end := res.Schedule.End()
				if end > lastEnd {
					t.Errorf("plan worsened: end %d → %d", lastEnd, end)
					return
				}
				if res.Generation > lastGen && end == lastEnd && !res.Improved && res.Generation > 0 {
					t.Errorf("generation %d advanced without Improved", res.Generation)
					return
				}
				lastGen, lastEnd = res.Generation, end
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Improvements == 0 {
		t.Fatalf("64-goroutine run produced no upgrades: %+v", m)
	}
	t.Logf("improvements %d, slots saved %d, queued %d, dropped %d, generations %v",
		m.Improvements, m.ImproveSlotsSaved, m.ImproveQueued, m.ImproveDropped, m.Generations)
}

// TestImproveBudgetZeroBitIdentical: budget-0 requests on a service with
// an improve pool behave exactly as before — no Improved flag, generation
// 0, identical schedule to a pool-less service.
func TestImproveBudgetZeroBitIdentical(t *testing.T) {
	in := dutyInstance(t, 100, 4, 10)
	a := New(Config{Workers: 1})
	defer a.Close()
	b := New(Config{Workers: 1, ImproveWorkers: 2})
	defer b.Close()
	ctx := context.Background()
	ra, err := a.Plan(ctx, WorkloadRequest{Instance: in, Scheduler: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Plan(ctx, WorkloadRequest{Instance: in, Scheduler: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Result.Schedule.End() != rb.Result.Schedule.End() ||
		rb.Result.Improved || rb.Result.Generation != 0 {
		t.Fatalf("budget-0 behavior diverged: %+v vs %+v", ra.Result, rb.Result)
	}
	if m := b.Metrics(); m.ImproveQueued != 0 || m.Improvements != 0 {
		t.Fatalf("budget-0 traffic touched the improve pool: %+v", m)
	}
}
