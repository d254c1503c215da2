package main

import (
	"context"
	"strconv"
	"time"

	spectral "repro"
	"repro/internal/trace"
)

// multilevelInputs is the number of industry2 ×8 netlists (n = 101096)
// a multilevel-k2 run cycles through.
const multilevelInputs = 6

// multilevelK2 is façade MultilevelMELO with K = 2 at n ≈ 10⁵, the
// roadmap's scale target: coarsening and FM refinement dominate, and the
// flat eigensolve runs only on the coarsest netlist. One round is one
// PartitionCtx call on the next input.
//
// The traced variant attaches a tracer and reads the spans the V-cycle
// emits around its phases (multilevel.coarsen, multilevel.solve,
// multilevel.refine) and the stage spans of the coarsest solve. It
// alternates with untraced calls on the same input.
type multilevelK2 struct {
	inputs []*spectral.Netlist
	outs   []mlOut
	tr     *tracer
	// first holds each input's first partition, which every later call
	// on the input must repeat.
	first map[int][]int
}

type mlOut struct {
	id, round, input int
	assign           []int
	reported         int
}

func (w *multilevelK2) setup(r *run) error {
	r.cutRounds = multilevelInputs
	w.inputs = make([]*spectral.Netlist, multilevelInputs)
	for i := range w.inputs {
		h, err := generate(industry2Times, inputSeed(r.seed, i))
		if err != nil {
			return err
		}
		w.inputs[i] = h
	}
	if r.traced {
		w.tr = newTracer()
	}
	return nil
}

func (w *multilevelK2) round(r *run, i int) error {
	traced := r.traced && i%2 == 1
	idx := i % multilevelInputs
	if r.traced {
		idx = (i / 2) % multilevelInputs
	}
	h := w.inputs[idx]
	ctx := context.Background()
	if traced {
		ctx = w.tr.ctx(ctx)
	}
	id := r.begin("partition")
	t0 := time.Now()
	p, err := spectral.PartitionCtx(ctx, h, spectral.Options{K: 2, Method: spectral.MultilevelMELO})
	wall := time.Since(t0)
	if err != nil {
		r.fail("partition", id, err)
		return nil
	}
	r.done("partition", id, wall)
	w.outs = append(w.outs, mlOut{id: id, round: i, input: idx, assign: p.Assign, reported: spectral.NetCut(h, p)})
	if r.traced {
		r.layers.round(traced, wall.Seconds())
	}
	if traced {
		recs, counters := w.tr.take()
		w.attribute(r, wall.Seconds(), recs, counters)
	}
	return nil
}

// attribute splits one traced V-cycle into its layers. The top level is
// coarsening, the coarsest solve, refinement (projection included) and
// the façade's own time outside the V-cycle; the coarsest solve's
// pipeline stages are sub-layers of multilevel.solve_s.
func (w *multilevelK2) attribute(r *run, wall float64, recs []trace.SpanRecord, counters map[string]int64) {
	coarsen := spanTotal(recs, "multilevel.coarsen")
	solve := spanTotal(recs, "multilevel.solve")
	refine := spanTotal(recs, "multilevel.refine")
	facade := spanTotal(recs, "partition") - spanTotal(recs, "multilevel")
	r.layers.op(wall, map[string]float64{
		"coarsen.s":          coarsen,
		"multilevel.solve_s": solve,
		"fm.refine_s":        refine,
		"facade.s":           facade,
	})
	r.layers.spans(recs, counters, "dprp.split_s")
	for _, rec := range recs {
		switch rec.Name {
		case "multilevel.coarsen":
			r.layers.add("coarsen.levels", 1)
		case "multilevel.solve":
			for _, a := range rec.Attrs {
				if a.Key == "n" {
					n, _ := strconv.Atoi(a.Value)
					r.layers.add("coarsen.coarsest_n", float64(n))
				}
			}
		}
	}
}

func (w *multilevelK2) check(r *run) {
	if w.first == nil {
		w.first = map[int][]int{}
	}
	for _, o := range w.outs {
		h := w.inputs[o.input]
		cut, err := checkPartition(h, o.assign, 2, o.reported, dprpWindow, r.seed+int64(o.id))
		if f, seen := w.first[o.input]; err == nil && seen {
			err = sameAssignment(o.assign, f)
		} else if !seen {
			w.first[o.input] = o.assign
		}
		if err != nil {
			r.fail("partition", o.id, err)
			continue
		}
		r.recordCut(o.round, cut)
	}
	w.outs = w.outs[:0]
}

func (w *multilevelK2) finish(r *run) {
	if r.traced {
		s, err := matvecSeconds(w.inputs[0], 50)
		if err != nil {
			r.broken(err)
		}
		r.layers.put("linalg.matvec_s", "s", s)
	}
}

func (w *multilevelK2) close() {}
