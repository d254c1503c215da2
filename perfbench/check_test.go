package main

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	spectral "repro"
	"repro/internal/graph"
	"repro/internal/resilience"
	"repro/internal/trace"
)

var smallShape = shape{name: "small", modules: 400, nets: 420, pins: 1500}

func smallPartition(t *testing.T, k int) (*spectral.Netlist, []int, int) {
	t.Helper()
	h, err := generate(smallShape, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spectral.Partition(h, spectral.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return h, p.Assign, spectral.NetCut(h, p)
}

func TestCheckPartitionAcceptsProgramOutput(t *testing.T) {
	for _, tc := range []struct {
		k   int
		win window
	}{{2, minFrac045}, {4, dprpWindow}, {4, nonEmpty}} {
		h, assign, cut := smallPartition(t, tc.k)
		got, err := checkPartition(h, assign, tc.k, cut, tc.win, 1)
		if err != nil || got != cut {
			t.Errorf("K=%d: checkPartition = %d, %v; want %d, nil", tc.k, got, err, cut)
		}
	}
}

func TestCheckPartitionRejectsDegenerateKWay(t *testing.T) {
	h, _, _ := smallPartition(t, 4)
	n := h.NumModules()
	// One giant cluster plus K−1 single modules, as the multilevel
	// V-cycle returns at K > 2.
	assign := make([]int, n)
	assign[0], assign[1], assign[2] = 1, 2, 3
	cut := recountCut(h, assign)
	if _, err := checkPartition(h, assign, 4, cut, dprpWindow, 1); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("degenerate partition passed the DP-RP window: %v", err)
	}
	// An empty cluster fails even without a window.
	for i := range assign {
		assign[i] = i % 3
	}
	if _, err := checkPartition(h, assign, 4, recountCut(h, assign), nonEmpty, 1); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("partition with an empty cluster passed: %v", err)
	}
	assign[5] = 4
	if _, err := checkPartition(h, assign, 4, 0, nonEmpty, 1); err == nil {
		t.Error("out-of-range cluster passed")
	}
}

func TestCheckPartitionRejectsFlippedModule(t *testing.T) {
	h, assign, cut := smallPartition(t, 2)
	for m := range assign {
		flipped := append([]int(nil), assign...)
		flipped[m] = 1 - flipped[m]
		if recountCut(h, flipped) == cut {
			continue
		}
		if _, err := checkPartition(h, flipped, 2, cut, nonEmpty, 1); err == nil || !strings.Contains(err.Error(), "reported") {
			t.Fatalf("module %d flipped against the reported cut passed: %v", m, err)
		}
		return
	}
	t.Fatal("no single flip changes the cut")
}

func TestCheckPartitionRejectsRandomQuality(t *testing.T) {
	h, assign, _ := smallPartition(t, 2)
	rand.New(rand.NewSource(3)).Shuffle(len(assign), func(i, j int) { assign[i], assign[j] = assign[j], assign[i] })
	if _, err := checkPartition(h, assign, 2, recountCut(h, assign), minFrac045, 1); err == nil || !strings.Contains(err.Error(), "random") {
		t.Errorf("random partition passed the quality bound: %v", err)
	}
}

func TestRecountCutMatchesProgram(t *testing.T) {
	h, _, _ := smallPartition(t, 2)
	rng := rand.New(rand.NewSource(9))
	for k := 2; k <= 5; k++ {
		assign := make([]int, h.NumModules())
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		want, err := h.CutSize(assign)
		if err != nil {
			t.Fatal(err)
		}
		if got := recountCut(h, assign); got != want {
			t.Errorf("K=%d: recount %d, hypergraph.CutSize %d", k, got, want)
		}
	}
}

func TestCheckEigenRejectsPerturbedVector(t *testing.T) {
	h, err := generate(smallShape, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromHypergraph(h, graph.PartitioningSpecific, 0)
	if err != nil {
		t.Fatal(err)
	}
	lap := g.Laplacian()
	sol, err := resilience.SolveEigen(context.Background(), lap, 6, resilience.EigenPolicy{DenseDirectN: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEigen(lap, sol.Dec, resilience.DefaultTol); err != nil {
		t.Fatalf("solver output rejected: %v", err)
	}
	sol.Dec.Vectors.Set(17, 3, sol.Dec.Vectors.At(17, 3)+1e-3)
	if err := checkEigen(lap, sol.Dec, resilience.DefaultTol); err == nil {
		t.Error("perturbed eigenvector passed")
	}
}

func TestSameAssignmentRejectsWarmColdDifference(t *testing.T) {
	cold := []int{0, 0, 1, 1, 0, 1}
	if err := sameAssignment(append([]int(nil), cold...), cold); err != nil {
		t.Errorf("identical assignments rejected: %v", err)
	}
	warm := append([]int(nil), cold...)
	warm[4] = 1
	if err := sameAssignment(warm, cold); err == nil || !strings.Contains(err.Error(), "1 of 6") {
		t.Errorf("warm result differing from cold passed: %v", err)
	}
}

func TestGenerateMatchesShape(t *testing.T) {
	for _, sh := range []shape{smallShape, test05Half, prim2Shape} {
		h, err := generate(sh, 11)
		if err != nil {
			t.Fatal(err)
		}
		if st := h.Stats(); st.Modules != sh.modules || st.Nets != sh.nets || st.Pins != sh.pins || !h.IsConnected() {
			t.Errorf("%s: stats %+v, connected %v", sh.name, st, h.IsConnected())
		}
		again, _ := generate(sh, 11)
		for e := range h.Nets {
			if err := sameAssignment(again.Nets[e], h.Nets[e]); err != nil {
				t.Fatalf("%s: net %d differs between two runs with one seed", sh.name, e)
			}
		}
	}
}

// TestPrim2PoolLadder re-derives prim2Plain and prim2Climb: every pool
// seed's eigensolve takes one ladder attempt (plain) or two (climb), and
// each list is sorted by Lanczos steps, then reorthogonalizations. It
// solves all 64 pool netlists (about a minute on two cores); -short
// skips it.
func TestPrim2PoolLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the whole prim2 pool")
	}
	if len(prim2Plain)+len(prim2Climb) != 64 {
		t.Fatalf("pool lists hold %d seeds, want 64", len(prim2Plain)+len(prim2Climb))
	}
	for _, tc := range []struct {
		pool     []int64
		attempts int
	}{{prim2Plain, 1}, {prim2Climb, 2}} {
		var prev [2]int64
		for _, s := range tc.pool {
			h, err := generate(prim2Shape, s)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.FromHypergraph(h, graph.PartitioningSpecific, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New()
			sol, err := resilience.SolveEigen(trace.WithTracer(context.Background(), tr), g.Laplacian(), 11, resilience.EigenPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			key := [2]int64{tr.Counter("eigen.matvec"), tr.Counter("eigen.reorth")}
			if sol.Attempts != tc.attempts {
				t.Errorf("seed %d: %d attempts, listed with %d", s, sol.Attempts, tc.attempts)
			}
			if key[0] < prev[0] || key[0] == prev[0] && key[1] < prev[1] {
				t.Errorf("seed %d: (steps, reorth) %v sorts before its predecessor's %v", s, key, prev)
			}
			prev = key
		}
	}
}
