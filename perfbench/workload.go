package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/geom"
	"mlbs/internal/graph"
	"mlbs/internal/graphio"
	"mlbs/internal/reliability"
	"mlbs/internal/topology"
)

// The four endpoints the workloads drive.
const (
	epPlan      = "/v1/plan"
	epAggregate = "/v1/aggregate"
	epValidate  = "/v1/validate"
	epReplan    = "/v1/replan"
)

// quantum is the grid base positions are snapped to (2^-16 ft). On it an
// integer translation is exact in float64, so every pairwise coordinate
// difference is unchanged, and with it the unit-disk graph, the E-model
// quadrants and every scheduler decision. Seeds move the deployments
// without moving the work.
const quantum = 1.0 / 65536

// maxShift bounds the seeded translation, in feet.
const maxShift = 1024

// Validation and replan parameters (fixed: the seed never changes work).
const (
	validateLossRate = 0.1
	validateTrials   = 200
	replanSeed       = 7
)

// request is one pre-generated HTTP request plus what the replay and the
// output check need to answer it locally.
type request struct {
	id      int
	ep      string
	body    []byte
	inst    core.Instance // the instance the server resolves
	inline  []byte        // the inline instance encoding; nil in generator form
	noCache bool
	loss    reliability.LossModel // validate only
	bounded bool                  // aggregate only: the agg-bounded tree
	delta   churn.Delta           // replan only
}

// workload is one traffic mix. warm lists the requests whose cached
// answers the pass relies on; every set-up sends warm and then pass once
// before the measured phase, which replays the pass until time is up.
type workload struct {
	name    string
	seed    uint64
	clients int
	warm    []*request
	pass    []*request
}

// passOrder is the order pass p sends the requests in: a permutation
// seeded by the workload seed and p, so two clients pair up different
// requests from pass to pass, and every run with one seed sends the same
// sequence.
func (w *workload) passOrder(p int) []int {
	return rand.New(rand.NewPCG(w.seed, uint64(p))).Perm(len(w.pass))
}

// shape is one class of base deployment: node count, duty rate (1 = sync)
// and how many deployments of it the pool holds.
type shape struct{ n, r, count int }

var workloadNames = []string{"sync-cold", "duty-cold", "warm-mix", "derive-cold"}

// buildWorkload generates the named workload's requests from seed. The
// same seed gives byte-identical requests. tr, when set, records each
// topology.Generate call.
func buildWorkload(name string, seed uint64, tr *tracer) (*workload, error) {
	rng := rand.New(rand.NewPCG(seed, hashName(name)))
	b := &maker{rng: rng, tr: tr}
	var w *workload
	var err error
	switch name {
	case "sync-cold":
		w, err = b.cold(name, []shape{{150, 1, 16}, {300, 1, 16}})
	case "duty-cold":
		// An odd pass keeps p50 inside one request's latencies: with
		// four fast n=150 and four slow n=300 searches, nearest-rank p50
		// was the slowest sample of one request, so one hiccup moved it.
		w, err = b.cold(name, []shape{{150, 10, 5}, {300, 10, 4}})
	case "warm-mix":
		w, err = b.warmMix()
	case "derive-cold":
		w, err = b.deriveCold()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	w.seed = seed
	for i, r := range w.pass {
		r.id = i
	}
	return w, nil
}

func hashName(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

type maker struct {
	rng *rand.Rand
	tr  *tracer
}

func (b *maker) generate(n int, seed uint64) (*topology.Deployment, error) {
	sp := b.tr.begin("topology.generate")
	defer b.tr.end(sp)
	return topology.Generate(topology.PaperConfig(n), seed)
}

// base is one pool deployment: its topology seed, the seed-independent
// snapped instance, and this seed's translated copy.
type base struct {
	shape
	topoSeed uint64
	canon    core.Instance
	dx, dy   float64
	moved    core.Instance
}

// bases draws the pool for shapes: the first topology seeds (from 1) whose
// snapped deployment is still a valid paper deployment, each translated by
// a seeded integer offset.
func (b *maker) bases(shapes []shape) ([]*base, error) {
	var out []*base
	for _, sh := range shapes {
		seed := uint64(1)
		for got := 0; got < sh.count; seed++ {
			if seed > 1000 {
				return nil, fmt.Errorf("no snapped deployment for n=%d", sh.n)
			}
			canon, ok, err := b.snappedInstance(sh.n, sh.r, seed)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			dx, dy := float64(b.rng.IntN(maxShift)), float64(b.rng.IntN(maxShift))
			out = append(out, &base{shape: sh, topoSeed: seed, canon: canon, dx: dx, dy: dy, moved: translate(canon, dx, dy)})
			got++
		}
	}
	return out, nil
}

// snappedInstance is the paper deployment for (n, seed) with positions
// snapped to the quantum grid, in the sync system (r ≤ 1) or under the
// service's uniform wake convention. ok is false when snapping broke the
// deployment's connectivity or source-eccentricity constraint.
func (b *maker) snappedInstance(n, r int, seed uint64) (core.Instance, bool, error) {
	cfg := topology.PaperConfig(n)
	dep, err := b.generate(n, seed)
	if err != nil {
		return core.Instance{}, false, err
	}
	pos := make([]geom.Point, n)
	for i, p := range dep.G.Positions() {
		pos[i] = geom.Point{X: snap(p.X), Y: snap(p.Y)}
	}
	g := graph.FromUDG(pos, cfg.Radius)
	ecc, connected := g.Eccentricity(dep.Source)
	if !connected || ecc < cfg.MinSourceE || ecc > cfg.MaxSourceE {
		return core.Instance{}, false, nil
	}
	return withWake(g, dep.Source, n, r, seed), true, nil
}

// withWake mirrors the service's generator: sync for r ≤ 1, otherwise the
// uniform wake schedule seeded with seed^0xA5.
func withWake(g *graph.Graph, src graph.NodeID, n, r int, seed uint64) core.Instance {
	if r <= 1 {
		return core.Sync(g, src)
	}
	return core.Async(g, src, dutycycle.NewUniform(n, r, seed^0xA5, 0), 0)
}

// generated is the instance the service resolves for generator-form
// parameters (n, seed, r).
func (b *maker) generated(n, r int, seed uint64) (core.Instance, error) {
	dep, err := b.generate(n, seed)
	if err != nil {
		return core.Instance{}, err
	}
	return withWake(dep.G, dep.Source, n, r, seed), nil
}

func snap(v float64) float64 { return math.Round(v/quantum) * quantum }

// translate moves every position by (dx, dy); with snapped positions and
// integer offsets the result is exact.
func translate(in core.Instance, dx, dy float64) core.Instance {
	pos := make([]geom.Point, in.G.N())
	for i, p := range in.G.Positions() {
		pos[i] = geom.Point{X: p.X + dx, Y: p.Y + dy}
	}
	out := in
	out.G = graph.FromUDG(pos, in.G.Radius())
	return out
}

// wireBody is the union of the request fields the workloads send.
type wireBody struct {
	N         int             `json:"n,omitempty"`
	Seed      uint64          `json:"seed,omitempty"`
	R         int             `json:"r,omitempty"`
	Instance  json.RawMessage `json:"instance,omitempty"`
	NoCache   bool            `json:"no_cache,omitempty"`
	LossRate  float64         `json:"loss_rate,omitempty"`
	LossSeed  uint64          `json:"loss_seed,omitempty"`
	Trials    int             `json:"trials,omitempty"`
	Delta     json.RawMessage `json:"delta,omitempty"`
	Scheduler string          `json:"scheduler,omitempty"`
}

// newRequest builds a plan, aggregate, validate or replan request against
// bs: inline (the translated instance) or in generator form (the unsnapped
// paper deployment the service generates itself). variant picks the
// validation's loss seed, the aggregation tree (odd: agg-bounded) or the
// replan's churn trace.
func (b *maker) newRequest(ep string, bs *base, inline, noCache bool, variant int) (*request, error) {
	r := &request{ep: ep, noCache: noCache}
	body := wireBody{NoCache: noCache}
	if inline {
		enc, err := graphio.EncodeInstance(bs.moved)
		if err != nil {
			return nil, err
		}
		r.inst, r.inline, body.Instance = bs.moved, enc, enc
	} else {
		in, err := b.generated(bs.n, bs.r, bs.topoSeed)
		if err != nil {
			return nil, err
		}
		r.inst = in
		body.N, body.Seed = bs.n, bs.topoSeed
		if bs.r > 1 {
			body.R = bs.r
		}
	}
	switch ep {
	case epPlan:
		body.Scheduler = "gopt"
	case epValidate:
		r.loss = reliability.LossModel{Kind: reliability.KindIID, Rate: validateLossRate, Seed: uint64(variant) + 1}
		body.LossRate, body.LossSeed, body.Trials = r.loss.Rate, r.loss.Seed, validateTrials
	case epAggregate:
		if r.bounded = variant%2 == 1; r.bounded {
			body.Scheduler = "agg-bounded"
		}
	case epReplan:
		d, err := replanDelta(bs, r.inst, inline, replanSeed+uint64(variant))
		if err != nil {
			return nil, err
		}
		enc, err := churn.EncodeDelta(d)
		if err != nil {
			return nil, err
		}
		r.delta, body.Delta = d, enc
	}
	r.body = mustJSON(body)
	return r, nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // wireBody always marshals
	}
	return data
}

// cold is a pool of inline no_cache G-OPT plans.
func (b *maker) cold(name string, shapes []shape) (*workload, error) {
	bases, err := b.bases(shapes)
	if err != nil {
		return nil, err
	}
	w := &workload{name: name, clients: 1}
	for _, bs := range bases {
		r, err := b.newRequest(epPlan, bs, true, true, 0)
		if err != nil {
			return nil, err
		}
		w.pass = append(w.pass, r)
	}
	return w, nil
}

// mixShapes are the base deployments of the two derived-request
// workloads: sync and duty r=10 at both sizes.
var mixShapes = []shape{{150, 1, 2}, {300, 1, 2}, {150, 10, 2}, {300, 10, 2}}

// warmMix is one request per (base, endpoint), every one a cache hit once
// primed; every fourth ships its instance inline.
func (b *maker) warmMix() (*workload, error) {
	bases, err := b.bases(mixShapes)
	if err != nil {
		return nil, err
	}
	w := &workload{name: "warm-mix", clients: 2}
	for i, bs := range bases {
		for j, ep := range []string{epPlan, epAggregate, epValidate, epReplan} {
			r, err := b.newRequest(ep, bs, (i+j)%4 == 0, false, 0)
			if err != nil {
				return nil, err
			}
			w.pass = append(w.pass, r)
		}
	}
	w.warm = w.pass
	return w, nil
}

// deriveCold re-derives from warm base plans on every request: per base,
// four validates (loss seeds), two aggregates (both tree policies) and two
// replans (two churn traces), all inline and no_cache. Many distinct keys
// spread the work evenly over the service's key-sharded workers whatever
// the digests, so the seed does not decide how much requests queue.
func (b *maker) deriveCold() (*workload, error) {
	bases, err := b.bases(mixShapes)
	if err != nil {
		return nil, err
	}
	w := &workload{name: "derive-cold", clients: 2}
	for _, bs := range bases {
		plan, err := b.newRequest(epPlan, bs, true, false, 0)
		if err != nil {
			return nil, err
		}
		w.warm = append(w.warm, plan)
		for j, ep := range []string{epValidate, epValidate, epValidate, epValidate, epAggregate, epAggregate, epReplan, epReplan} {
			r, err := b.newRequest(ep, bs, true, true, j%4)
			if err != nil {
				return nil, err
			}
			w.pass = append(w.pass, r)
		}
	}
	return w, nil
}

// replanDelta is the first event of a churn trace (seeded with seed)
// against the deployment, drawn on the untranslated form and then moved
// with it, positions snapped, so every benchmark seed mutates its
// translated base exactly alike.
func replanDelta(bs *base, in core.Instance, inline bool, seed uint64) (churn.Delta, error) {
	from, dx, dy := in, 0.0, 0.0
	if inline {
		from, dx, dy = bs.canon, bs.dx, bs.dy
	}
	tr, err := churn.GenerateTrace(from, churn.TraceConfig{FailsPerHour: 2, JoinsPerHour: 2, JittersPerHour: 2}, seed)
	if err != nil {
		return churn.Delta{}, err
	}
	if len(tr.Events) == 0 {
		return churn.Delta{}, fmt.Errorf("empty churn trace for n=%d seed %d", bs.n, bs.topoSeed)
	}
	d := tr.Delta(0, 1)
	for i := range d.Events {
		ev := &d.Events[i]
		ev.X, ev.Y = snap(ev.X), snap(ev.Y)
		if ev.Kind == churn.NodeJoin {
			ev.X, ev.Y = ev.X+dx, ev.Y+dy
		}
	}
	if _, _, err := churn.Apply(in, d); err != nil {
		return churn.Delta{}, fmt.Errorf("churn delta for n=%d seed %d: %w", bs.n, bs.topoSeed, err)
	}
	return d, nil
}
