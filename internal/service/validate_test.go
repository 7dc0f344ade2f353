package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mlbs/internal/graphio"
	"mlbs/internal/reliability"
)

func validateService(t *testing.T) *Service {
	t.Helper()
	s := New(Config{Workers: 2, CacheCapacity: 64})
	t.Cleanup(s.Close)
	return s
}

func TestValidateBasic(t *testing.T) {
	s := validateService(t)
	ctx := context.Background()
	resp, err := s.Validate(ctx, ValidateRequest{
		WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 80, Seed: 3}},
		Loss:            reliability.LossModel{Rate: 0.1, Seed: 1},
		Trials:          150,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.Report
	if rep == nil || rep.Trials != 150 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.NodeCovered) != 80 {
		t.Fatalf("node coverage over %d nodes, want 80", len(rep.NodeCovered))
	}
	if rep.MeanDeliveryRatio <= 0 || rep.MeanDeliveryRatio > 1 {
		t.Fatalf("delivery ratio %v", rep.MeanDeliveryRatio)
	}
	if len(resp.Digest) != 64 {
		t.Fatalf("digest %q", resp.Digest)
	}
	if resp.CacheHit {
		t.Fatal("first validation cannot be a cache hit")
	}
	if resp.Repair != nil {
		t.Fatal("repair present without a target")
	}

	// Second identical request: reliability-cache hit serving the same
	// immutable report.
	again, err := s.Validate(ctx, ValidateRequest{
		WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 80, Seed: 3}},
		Loss:            reliability.LossModel{Rate: 0.1, Seed: 1},
		Trials:          150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !again.PlanCacheHit {
		t.Fatalf("repeat validation: CacheHit=%v PlanCacheHit=%v, want both", again.CacheHit, again.PlanCacheHit)
	}
	if again.Report != rep {
		t.Fatal("cache hit returned a different report object")
	}

	m := s.Metrics()
	if m.Workload("validate").Requests != 2 || m.Workload("validate").Cache.Hits != 1 || m.Workload("validate").Cache.Misses != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Workload("validate").Counter("trials") != 150 {
		t.Fatalf("MC trials = %d, want 150 (the hit ran none)", m.Workload("validate").Counter("trials"))
	}
}

// TestValidateKeyedByLossParams: the reliability cache must distinguish
// every parameter the answer depends on.
func TestValidateKeyedByLossParams(t *testing.T) {
	s := validateService(t)
	ctx := context.Background()
	base := ValidateRequest{
		WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 60, Seed: 1}},
		Loss:            reliability.LossModel{Rate: 0.05, Seed: 1},
		Trials:          80,
	}
	if _, err := s.Validate(ctx, base); err != nil {
		t.Fatal(err)
	}
	variants := []ValidateRequest{base, base, base, base}
	variants[0].Loss.Rate = 0.1
	variants[1].Loss.Seed = 2
	variants[2].Trials = 81
	variants[3].Target = 0.99
	for i, v := range variants {
		resp, err := s.Validate(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Fatalf("variant %d shared the base cache entry", i)
		}
	}
}

// TestValidateDigestStableReports pins the acceptance criterion: two
// independent services answering the same request produce byte-identical
// canonical reports — validation is a pure function of content address +
// loss parameters.
func TestValidateDigestStableReports(t *testing.T) {
	req := ValidateRequest{
		WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 100, Seed: 5}},
		Loss:            reliability.LossModel{Rate: 0.08, Seed: 11},
		Trials:          200,
	}
	var encoded [][]byte
	for i := 0; i < 2; i++ {
		s := New(Config{Workers: 3})
		resp, err := s.Validate(context.Background(), req)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		data, err := graphio.EncodeReliabilityReport(resp.Report)
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, data)
	}
	if string(encoded[0]) != string(encoded[1]) {
		t.Fatal("independent services produced different canonical reports")
	}
}

func TestValidateWithRepairTarget(t *testing.T) {
	s := validateService(t)
	resp, err := s.Validate(context.Background(), ValidateRequest{
		WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 100, Seed: 5}},
		Loss:            reliability.LossModel{Rate: 0.1, Seed: 1},
		Trials:          150,
		Target:          0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr := resp.Repair
	if rr == nil {
		t.Fatal("no repair result despite target")
	}
	if resp.Report != rr.After {
		t.Fatal("response report must be the repaired estimate")
	}
	if rr.After.MeanDeliveryRatio < rr.Before.MeanDeliveryRatio {
		t.Fatalf("repair lowered delivery: %v → %v", rr.Before.MeanDeliveryRatio, rr.After.MeanDeliveryRatio)
	}
}

// TestValidateConcurrentCoalesces: concurrent identical validations run
// the Monte-Carlo batch exactly once.
func TestValidateConcurrentCoalesces(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	req := ValidateRequest{
		WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 80, Seed: 2}},
		Loss:            reliability.LossModel{Rate: 0.05, Seed: 1},
		Trials:          100,
	}
	const goroutines = 16
	var wg sync.WaitGroup
	resps := make([]ValidateResponse, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Validate(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	first := resps[0].Report
	for i := 1; i < goroutines; i++ {
		if !reflect.DeepEqual(resps[i].Report, first) {
			t.Fatalf("goroutine %d saw a different report", i)
		}
	}
	if got := s.Metrics().Workload("validate").Counter("trials"); got != 100 {
		t.Fatalf("ran %d Monte-Carlo trials for %d identical requests, want 100", got, goroutines)
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	s := validateService(t)
	ctx := context.Background()
	gen40 := WorkloadRequest{Generator: &Generator{N: 40, Seed: 1}}
	cases := []ValidateRequest{
		{WorkloadRequest: gen40, Loss: reliability.LossModel{Rate: 2}},
		{WorkloadRequest: gen40, Trials: MaxValidateTrials + 1},
		{WorkloadRequest: gen40, Target: 1.5},
		{WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 40, Seed: 1}, Scheduler: "nope"}},
		{},
	}
	for i, req := range cases {
		if _, err := s.Validate(ctx, req); err == nil {
			t.Fatalf("case %d accepted: %+v", i, req)
		}
	}
}

func TestValidateNoCacheRecomputesButStores(t *testing.T) {
	s := validateService(t)
	ctx := context.Background()
	req := ValidateRequest{
		WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 60, Seed: 1}, NoCache: true},
		Loss:            reliability.LossModel{Rate: 0.05, Seed: 3},
		Trials:          64,
	}
	for i := 0; i < 2; i++ {
		resp, err := s.Validate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Fatalf("request %d: NoCache request reported a hit", i)
		}
	}
	if got := s.Metrics().Workload("validate").Counter("trials"); got != 128 {
		t.Fatalf("MC trials = %d, want 128 (two cold batches)", got)
	}
	// The stored result now serves cached traffic.
	req.NoCache = false
	resp, err := s.Validate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("NoCache results must still populate the cache")
	}
}

func TestValidateAfterCloseFails(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if _, err := s.Validate(context.Background(), ValidateRequest{WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 10, Seed: 1}}}); err == nil {
		t.Fatal("validate after close succeeded")
	}
}

func ExampleService_Validate() {
	s := New(Config{Workers: 2})
	defer s.Close()
	resp, err := s.Validate(context.Background(), ValidateRequest{
		WorkloadRequest: WorkloadRequest{Generator: &Generator{N: 100, Seed: 5}},
		Loss:            reliability.LossModel{Rate: 0.08, Seed: 11},
		Trials:          200,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(resp.Report.Trials, len(resp.Report.NodeCovered))
	// Output: 200 100
}
