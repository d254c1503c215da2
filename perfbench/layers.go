package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// attributionTolerance bounds the traced run's unattributed time: the
// layer self-times of the traced operations must cover their summed wall
// time to within this share.
const attributionTolerance = 0.05

// universalLayers are the per-layer metrics every workload measures;
// they form the per_layer list of BENCHMARK.json. Each workload adds its
// own layers (coarsening, refinement, the job pool, the server) to the
// "layers" line it prints before the result.
var universalLayers = []struct{ name, unit string }{
	{"graph.clique_s", "s"},
	{"eigen.solve_s", "s"},
	{"eigen.attempts", "count"},
	{"eigen.steps", "count"},
	{"eigen.s_per_step", "s"},
	{"eigen.reorth", "count"},
	{"eigen.reorth_skipped", "count"},
	{"linalg.matvec_s", "s"},
	{"melo.order_s", "s"},
	{"melo.candidates", "count"},
	{"dprp.split_s", "s"},
	{"dprp.cells", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// layerTimes accumulates the traced run's per-layer figures. Layer
// times are summed over the traced operations and reported per traced
// operation; counters are summed and reported per eigensolve or per
// operation as their definitions say.
type layerTimes struct {
	sum   map[string]float64
	final map[string]metric

	tracedOps      int
	tracedWall     float64 // Σ wall of traced operations
	attributed     float64 // Σ top-level layer self-times of those operations
	solves         float64 // eigensolves observed in traced operations
	tracedRounds   []float64
	untracedRounds []float64
}

func newLayerTimes() *layerTimes {
	return &layerTimes{sum: map[string]float64{}, final: map[string]metric{}}
}

// op records one traced operation: its wall time and the self-times of
// the top-level layers that partition it. Their names are layer metrics
// themselves.
func (l *layerTimes) op(wall float64, top map[string]float64) {
	l.tracedOps++
	l.tracedWall += wall
	for name, v := range top {
		l.attributed += v
		l.add(name, v)
	}
}

// add accumulates a layer time or counter that is not part of the
// top-level partition of the wall time (a sub-layer or a count).
func (l *layerTimes) add(name string, v float64) { l.sum[name] += v }

// put sets a final metric directly.
func (l *layerTimes) put(name, unit string, v float64) { l.final[name] = metric{v, unit} }

// round records a whole round's wall time, traced or not, for the
// overhead ratio.
func (l *layerTimes) round(traced bool, wall float64) {
	if traced {
		l.tracedRounds = append(l.tracedRounds, wall)
	} else {
		l.untracedRounds = append(l.untracedRounds, wall)
	}
}

// spans folds a traced operation's span records into the layers every
// workload shares: the façade pipeline stages and the eigensolver,
// ordering and split spans and counters. Split-stage spans go to the
// split layer named (dprp.split_s for the MELO family), or nowhere when
// it is empty.
func (l *layerTimes) spans(recs []trace.SpanRecord, counters map[string]int64, split string) {
	// An eigensolve is a resilience.SolveEigen call, or a Lanczos run
	// outside one (the warm-started solve of a delta job).
	ladder := map[uint64]bool{}
	for _, rec := range recs {
		if rec.Name == "eigen.solve" {
			ladder[rec.Span] = true
		}
	}
	for _, rec := range recs {
		if rec.Name == "eigen.lanczos" && !ladder[rec.Parent] {
			l.solves++
		}
	}
	for _, rec := range recs {
		s := rec.Dur.Seconds()
		switch rec.Name {
		case "clique-model":
			l.add("graph.clique_s", s)
		case "eigen":
			l.add("eigen.solve_s", s)
		case "ordering":
			l.add("melo.order_s", s)
		case "split":
			if split != "" {
				l.add(split, s)
			}
		case "eigen.solve":
			l.solves++
		case "eigen.lanczos", "eigen.dense":
			l.add("eigen.attempts", 1)
			if rec.Name == "eigen.lanczos" {
				l.add("eigen.lanczos_s", s)
			}
		}
	}
	l.add("eigen.steps", float64(counters["eigen.matvec"]))
	l.add("eigen.reorth", float64(counters["eigen.reorth"]))
	l.add("eigen.reorth_skipped", float64(counters["eigen.reorth.skipped"]))
	l.add("melo.candidates", float64(counters["melo.candidates"]))
	l.add("dprp.cells", float64(counters["dprp.cells"]))
}

// finish turns the sums into per-operation and per-solve figures and
// checks that the layer self-times cover the traced wall time.
func (l *layerTimes) finish() error {
	if l.tracedOps == 0 {
		return fmt.Errorf("no traced operation passed")
	}
	ops := float64(l.tracedOps)
	solves := math.Max(l.solves, 1)
	for name, v := range l.sum {
		switch {
		case name == "eigen.lanczos_s":
		case name == "eigen.attempts" || name == "eigen.steps" || name == "eigen.reorth" || name == "eigen.reorth_skipped":
			l.put(name, "count", v/solves)
		case strings.HasSuffix(name, "_s") || strings.HasSuffix(name, ".s"):
			l.put(name, "s", v/ops)
		default:
			l.put(name, "count", v/ops)
		}
	}
	if steps := l.sum["eigen.steps"]; steps > 0 {
		l.put("eigen.s_per_step", "s", l.sum["eigen.lanczos_s"]/steps)
	}
	gap := l.tracedWall - l.attributed
	l.put("trace.unattributed_s", "s", gap/ops)
	l.put("trace.overhead_ratio", "ratio", median(l.tracedRounds)/median(l.untracedRounds))
	fmt.Printf("trace: %d traced ops, wall %.4f s, attributed %.4f s, unattributed share %.4f (tolerance %.2f)\n",
		l.tracedOps, l.tracedWall, l.attributed, gap/l.tracedWall, attributionTolerance)
	if math.Abs(gap) > attributionTolerance*l.tracedWall {
		return fmt.Errorf("layer self-times leave %.4f s of %.4f s unattributed", gap, l.tracedWall)
	}
	return nil
}

// perLayer returns the universal per-layer metrics (zero when a layer
// has no entry, e.g. DP cells on a K = 2 workload).
func (l *layerTimes) perLayer() map[string]metric {
	out := map[string]metric{}
	for _, u := range universalLayers {
		m, ok := l.final[u.name]
		if !ok {
			m = metric{0, u.unit}
		}
		out[u.name] = m
	}
	return out
}

// workloadOnly returns the metrics outside the universal list.
func (l *layerTimes) workloadOnly() map[string]metric {
	out := map[string]metric{}
	names := make([]string, 0, len(l.final))
	for name := range l.final {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !isUniversal(name) {
			out[name] = l.final[name]
		}
	}
	return out
}

func isUniversal(name string) bool {
	for _, u := range universalLayers {
		if u.name == name {
			return true
		}
	}
	return false
}

// spanSink collects finished spans for the traced run.
type spanSink struct {
	mu   sync.Mutex
	recs []trace.SpanRecord
}

func (s *spanSink) Record(rec trace.SpanRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

// drain returns and forgets the spans collected so far.
func (s *spanSink) drain() []trace.SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.recs
	s.recs = nil
	return out
}

// tracer pairs a tracer with its sink and snapshots counters so that
// each traced operation can read the deltas it caused.
type tracer struct {
	t    *trace.Tracer
	sink *spanSink
	last map[string]int64
}

func newTracer() *tracer {
	sink := &spanSink{}
	return &tracer{t: trace.New(sink), sink: sink, last: map[string]int64{}}
}

func (t *tracer) ctx(ctx context.Context) context.Context { return trace.WithTracer(ctx, t.t) }

// take returns the spans and counter deltas since the previous take.
func (t *tracer) take() ([]trace.SpanRecord, map[string]int64) {
	now := t.t.Counters()
	delta := map[string]int64{}
	for k, v := range now {
		delta[k] = v - t.last[k]
	}
	t.last = now
	return t.sink.drain(), delta
}

// spanTotal sums the durations of the named spans.
func spanTotal(recs []trace.SpanRecord, name string) float64 {
	var s float64
	for _, rec := range recs {
		if rec.Name == name {
			s += rec.Dur.Seconds()
		}
	}
	return s
}

// matvecSeconds times one MatVec of h's clique-model Laplacian the way
// the eigensolver applies it (row-sharded across the default worker
// count): the median of reps products.
func matvecSeconds(h *hypergraph.Hypergraph, reps int) (float64, error) {
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific, 0)
	if err != nil {
		return 0, err
	}
	lap := g.Laplacian()
	op := linalg.Par(lap, parallel.Workers(0))
	x := make([]float64, lap.Dim())
	y := make([]float64, lap.Dim())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		op.MatVec(x, y)
		times[i] = time.Since(t0).Seconds()
	}
	return median(times), nil
}
