package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
	"time"
)

// sample is one completed HTTP request of the measured phase.
type sample struct {
	req     int           // request id (index into the pass)
	status  int           // HTTP status; 0 on a transport error
	start   time.Duration // send time since the phase began
	lat     time.Duration // send to last response byte
	elapsed time.Duration // the server-reported elapsed_ns
	size    int           // response body bytes
	hash    uint64        // body hash with elapsed_ns masked out
}

// bodyKey identifies one distinct response body of one request.
type bodyKey struct {
	req  int
	hash uint64
}

// mark is taken as each pass starts, and once at the end: the time,
// the requests completed so far and the server's CPU time.
type mark struct {
	at   time.Duration
	done int
	cpu  time.Duration
}

// phase is the outcome of one closed-loop run over a workload's pass.
type phase struct {
	samples []sample
	bodies  map[bodyKey][]byte // one copy of every distinct body
	marks   []mark
	wall    time.Duration
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send posts one pre-encoded body and reads the whole response.
func send(ctx context.Context, client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// prime sends every request once, in order, and fails on any non-2xx.
func prime(ctx context.Context, client *http.Client, base string, reqs []*request) error {
	var buf bytes.Buffer
	for _, r := range reqs {
		status, err := send(ctx, client, base+r.ep, r.body, &buf)
		if err != nil {
			return fmt.Errorf("priming %s: %w", r.ep, err)
		}
		if status/100 != 2 {
			return fmt.Errorf("priming %s: status %d: %s", r.ep, status, buf.Bytes())
		}
	}
	return nil
}

// run drives passes in a closed loop from w.clients clients sharing one
// cursor, each pass in its own seeded order, stopping at the first pass
// boundary after dur once at least minSamples requests were sent, so
// every run answers whole passes. cpu reads the server's CPU time.
func run(ctx context.Context, client *http.Client, base string, w *workload, dur time.Duration, minSamples int, cpu func() time.Duration) *phase {
	var (
		mu      sync.Mutex // guards cursor, order, stopped, done, ph.bodies and ph.marks
		cursor  int
		order   []int
		done    int
		stopped bool
		wg      sync.WaitGroup
	)
	ph := &phase{bodies: make(map[bodyKey][]byte)}
	seed := maphash.MakeSeed()
	t0 := time.Now()
	next := func() (*request, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := cursor % len(w.pass)
		if stopped || ctx.Err() != nil || i == 0 && cursor >= minSamples && time.Since(t0) >= dur {
			stopped = true
			return nil, false
		}
		if i == 0 {
			ph.marks = append(ph.marks, mark{at: time.Since(t0), done: done, cpu: cpu()})
			order = w.passOrder(cursor / len(w.pass))
		}
		cursor++
		return w.pass[order[i]], true
	}
	per := make([][]sample, w.clients)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			var h maphash.Hash
			h.SetSeed(seed)
			for {
				r, ok := next()
				if !ok {
					return
				}
				start := time.Since(t0)
				status, err := send(ctx, client, base+r.ep, r.body, &buf)
				s := sample{req: r.id, start: start, lat: time.Since(t0) - start}
				if err == nil {
					s.status, s.size = status, buf.Len()
					var masked [2][]byte
					s.elapsed, masked = splitElapsed(buf.Bytes())
					h.Reset()
					h.Write(masked[0])
					h.Write(masked[1])
					s.hash = h.Sum64()
				}
				per[c] = append(per[c], s)
				mu.Lock()
				done++
				if k := (bodyKey{r.id, s.hash}); err == nil && ph.bodies[k] == nil {
					ph.bodies[k] = bytes.Clone(buf.Bytes())
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.marks = append(ph.marks, mark{at: ph.wall, done: done, cpu: cpu()})
	for _, s := range per {
		ph.samples = append(ph.samples, s...)
	}
	return ph
}

var elapsedField = []byte(`"elapsed_ns":`)

// splitElapsed parses the response's elapsed_ns and returns the body
// without that number, which is the only part of an answer that differs
// between identical requests.
func splitElapsed(body []byte) (time.Duration, [2][]byte) {
	i := bytes.Index(body, elapsedField)
	if i < 0 {
		return 0, [2][]byte{body, nil}
	}
	j := i + len(elapsedField)
	for j < len(body) && body[j] == ' ' {
		j++
	}
	var v int64
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		v = v*10 + int64(body[k]-'0')
		k++
	}
	return time.Duration(v), [2][]byte{body[:j], body[k:]}
}
