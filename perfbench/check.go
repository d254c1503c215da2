package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/eigen"
	"repro/internal/hypergraph"
	"repro/internal/linalg"
)

// window is the balance constraint a partition is held to.
type window int

const (
	// minFrac045 is the K = 2 window of MELO and SB: the smaller side
	// holds at least ⌈0.45·n⌉ modules (⌊n/2⌋ when that is smaller).
	minFrac045 window = iota
	// dprpWindow is DP-RP's restricted-partitioning window: every
	// cluster holds between ⌊n/2K⌋ and ⌈2n/K⌉ modules, the whole-module
	// form of [n/2K, 2n/K] that dprp.PartitionCtx enforces.
	dprpWindow
	// nonEmpty asks only for K non-empty clusters (RecursiveBisection
	// declares no window).
	nonEmpty
)

// randomCutFactor: a checked cut may be at most this share of the cut
// of a random partition with the same cluster sizes.
const randomCutFactor = 0.5

// checkPartition verifies one partition of h: a complete, in-range
// K-way assignment with no empty cluster, a net cut that the
// benchmark's own recount confirms equal to reported, the balance
// window, and a cut at most half that of a seeded random partition with
// the same cluster sizes. It returns the recounted cut.
func checkPartition(h *hypergraph.Hypergraph, assign []int, k, reported int, win window, seed int64) (int, error) {
	n := h.NumModules()
	if len(assign) != n {
		return 0, fmt.Errorf("assignment covers %d modules, netlist has %d", len(assign), n)
	}
	if k < 2 {
		return 0, fmt.Errorf("K = %d", k)
	}
	sizes := make([]int, k)
	for i, c := range assign {
		if c < 0 || c >= k {
			return 0, fmt.Errorf("module %d in cluster %d, outside [0,%d)", i, c, k)
		}
		sizes[c]++
	}
	for c, s := range sizes {
		if s == 0 {
			return 0, fmt.Errorf("cluster %d is empty (sizes %v)", c, sizes)
		}
	}
	cut := recountCut(h, assign)
	if cut != reported {
		return cut, fmt.Errorf("recounted cut %d, program reported %d", cut, reported)
	}
	switch win {
	case minFrac045:
		lo := int(math.Ceil(0.45 * float64(n)))
		if lo > n/2 {
			lo = n / 2
		}
		for _, s := range sizes {
			if s < lo {
				return cut, fmt.Errorf("side of %d modules below the 0.45 window (%d of %d; sizes %v)", s, lo, n, sizes)
			}
		}
	case dprpWindow:
		lo, hi := n/(2*k), (2*n+k-1)/k
		for c, s := range sizes {
			if s < lo || s > hi {
				return cut, fmt.Errorf("cluster %d holds %d modules, outside the DP-RP window [%d, %d] (sizes %v)", c, s, lo, hi, sizes)
			}
		}
	}
	if rc := randomCut(h, assign, seed); float64(cut) > randomCutFactor*float64(rc) {
		return cut, fmt.Errorf("cut %d exceeds %.2f × the random partition's cut %d", cut, randomCutFactor, rc)
	}
	return cut, nil
}

// recountCut counts the nets whose modules span more than one cluster.
func recountCut(h *hypergraph.Hypergraph, assign []int) int {
	cut := 0
	for _, net := range h.Nets {
		for _, m := range net[1:] {
			if assign[m] != assign[net[0]] {
				cut++
				break
			}
		}
	}
	return cut
}

// randomCut is the cut of a seeded random permutation of assign, which
// keeps every cluster's size.
func randomCut(h *hypergraph.Hypergraph, assign []int, seed int64) int {
	perm := append([]int(nil), assign...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return recountCut(h, perm)
}

// sameAssignment reports whether two partitions assign every module to
// the same cluster label.
func sameAssignment(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("assignments cover %d and %d modules", len(got), len(want))
	}
	diff, first := 0, -1
	for i := range got {
		if got[i] != want[i] {
			if first < 0 {
				first = i
			}
			diff++
		}
	}
	if diff > 0 {
		return fmt.Errorf("%d of %d modules differ (first: module %d in %d, want %d)", diff, len(got), first, got[first], want[first])
	}
	return nil
}

// orthoTol bounds |⟨u_a, u_b⟩ − δ_ab| for the returned eigenvectors.
const orthoTol = 1e-6

// checkEigen verifies eigenpairs of the Laplacian lap: each residual
// ‖L·u − λ·u‖ stays within the floor the solver documents, and the
// vectors are orthonormal. The floor is max(√ε, tol)·Gershgorin(L):
// selective reorthogonalization bounds residuals at √ε·‖L‖ (DESIGN.md
// §10), and the ladder solves to the relative tolerance tol, whichever
// is looser.
func checkEigen(lap *linalg.CSR, dec *eigen.Decomposition, tol float64) error {
	n := lap.Dim()
	gersh := 0.0
	for i := 0; i < n; i++ {
		row := 0.0
		for p := lap.RowPtr[i]; p < lap.RowPtr[i+1]; p++ {
			row += math.Abs(lap.Val[p])
		}
		gersh = math.Max(gersh, row)
	}
	floor := math.Max(math.Sqrt(0x1p-52), tol) * gersh
	vecs := make([][]float64, dec.D())
	y := make([]float64, n)
	for j := range vecs {
		u := dec.Vector(j)
		vecs[j] = u
		lap.MatVec(u, y)
		var res float64
		for i := range y {
			d := y[i] - dec.Values[j]*u[i]
			res += d * d
		}
		if res = math.Sqrt(res); !(res <= floor) {
			return fmt.Errorf("pair %d (λ = %g): residual %.3g above the floor %.3g", j, dec.Values[j], res, floor)
		}
	}
	for a := range vecs {
		for b := a; b < len(vecs); b++ {
			var dot float64
			for i := range vecs[a] {
				dot += vecs[a][i] * vecs[b][i]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if !(math.Abs(dot-want) <= orthoTol) {
				return fmt.Errorf("⟨u%d, u%d⟩ = %.3g, want %g", a, b, dot, want)
			}
		}
	}
	return nil
}
