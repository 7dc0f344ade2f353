package main

import (
	"encoding/json"
	"fmt"
	"reflect"

	"mlbs/internal/churn"
	"mlbs/internal/graphio"
)

// responseBody is the union of the response fields the check reads.
type responseBody struct {
	Digest       string          `json:"digest"`
	LatencySlots int             `json:"latency_slots"`
	Result       json.RawMessage `json:"result"`
	Report       json.RawMessage `json:"report"`
}

// checkBody decodes one distinct response body of r, validates the
// schedule it carries against the locally built instance, and holds its
// latency in slots (and digest, and any reliability report) to the
// replay's answer. It returns the answer's latency in slots.
func checkBody(r *request, want *answer, body []byte) (int, error) {
	var resp responseBody
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode response: %w", err)
	}
	if resp.Digest != want.digest {
		return 0, fmt.Errorf("digest %s, want %s", resp.Digest, want.digest)
	}
	var slots int
	switch r.ep {
	case epPlan, epReplan:
		res, err := graphio.DecodeResult(resp.Result)
		if err != nil {
			return 0, err
		}
		in := r.inst
		if r.ep == epReplan {
			if in, _, err = churn.Apply(r.inst, r.delta); err != nil {
				return 0, err
			}
		}
		if err := res.Schedule.Validate(in); err != nil {
			return 0, fmt.Errorf("invalid schedule: %w", err)
		}
		slots = res.Schedule.Latency()
	case epAggregate:
		res, err := graphio.DecodeAggResult(resp.Result)
		if err != nil {
			return 0, err
		}
		if err := res.Schedule.Validate(r.inst); err != nil {
			return 0, fmt.Errorf("invalid aggregation schedule: %w", err)
		}
		if res.LatencySlots != resp.LatencySlots || res.Schedule.Latency() != res.LatencySlots {
			return 0, fmt.Errorf("aggregation latency fields disagree")
		}
		slots = res.LatencySlots
	case epValidate:
		rep, err := graphio.DecodeReliabilityReport(resp.Report)
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(rep, want.report) {
			return 0, fmt.Errorf("reliability report differs from the local estimate")
		}
		slots = rep.ScheduleLatency
	}
	if slots != want.slots {
		return 0, fmt.Errorf("latency %d slots, want %d", slots, want.slots)
	}
	return slots, nil
}

// checked is the output check's verdict over one measured phase.
type checked struct {
	ok        int     // 2xx responses whose body passed the check
	meanSlots float64 // mean latency in slots over every response
	errs      []string
}

// checkPhase holds every response of the phase to the replay's answers:
// each distinct body (of each request) is decoded and checked once, and
// every response maps to one of them by its masked-body hash.
func checkPhase(w *workload, ph *phase, want map[int]*answer) checked {
	verdict := make(map[bodyKey]int) // slots, or -1 when the body failed
	var c checked
	fail := func(format string, args ...any) {
		if len(c.errs) < 8 {
			c.errs = append(c.errs, fmt.Sprintf(format, args...))
		}
	}
	for k, body := range ph.bodies {
		r := w.pass[k.req]
		slots, err := checkBody(r, want[k.req], body)
		if err != nil {
			fail("%s request %d: %v", r.ep, r.id, err)
			slots = -1
		}
		verdict[k] = slots
	}
	total := 0
	for _, s := range ph.samples {
		if s.status/100 != 2 {
			fail("request %d: status %d", s.req, s.status)
			continue
		}
		slots, ok := verdict[bodyKey{s.req, s.hash}]
		if !ok || slots < 0 {
			continue
		}
		c.ok++
		total += slots
	}
	if c.ok > 0 {
		c.meanSlots = float64(total) / float64(c.ok)
	}
	return c
}
