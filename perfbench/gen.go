package main

import (
	"fmt"
	"math/rand"

	spectral "repro"
	"repro/internal/hypergraph"
)

// shape is a Table-1 circuit's published statistics, scaled.
type shape struct {
	name                string
	modules, nets, pins int
}

// The shapes the workloads draw from: the paper's Table 1 statistics
// (modules, nets, pins) of prim2, test05 and industry2, scaled.
var (
	prim2Shape     = shape{name: "prim2", modules: 3014, nets: 3029, pins: 11219}
	test05Half     = shape{name: "test05", modules: 1297, nets: 1375, pins: 5038}
	industry2Times = shape{name: "industry2", modules: 101096, nets: 107352, pins: 387232}
)

// maxNetSize caps generated net sizes.
const maxNetSize = 64

// generate builds a connected clustered netlist with exactly the shape's
// module, net and pin counts, deterministically from seed.
//
// Recipe: modules are numbered cluster by cluster, 16 to a cluster, and
// the clusters sit on a square grid. A connecting skeleton of nets of
// size s covers the modules in index order, consecutive nets sharing one
// module; it has ⌈(n−1)/(s−1)⌉ nets, so every module is on it. The other
// nets get sizes 2 + Geometric (capped at 64, adjusted to the exact pin
// total) and draw each pin from the net's home cluster with probability
// 0.70, from the home's 3×3 grid neighbourhood with 0.25, and from the
// whole netlist otherwise.
func generate(sh shape, seed int64) (*spectral.Netlist, error) {
	n, nets, pins := sh.modules, sh.nets, sh.pins
	if n < 2 || nets < 1 || pins < 2*nets || pins > nets*maxNetSize {
		return nil, fmt.Errorf("generate %s: infeasible shape", sh.name)
	}
	rng := rand.New(rand.NewSource(seed))

	s, _ := skeleton(sh)
	var all [][]int
	skelPins := 0
	for start := 0; start < n-1; start += s - 1 {
		end := start + s - 1
		if end > n-1 {
			end = n - 1
		}
		net := make([]int, 0, end-start+1)
		for m := start; m <= end; m++ {
			net = append(net, m)
		}
		all = append(all, net)
		skelPins += len(net)
	}
	restNets, restPins := nets-len(all), pins-skelPins
	if restNets < 0 || restPins < 2*restNets || restPins > restNets*maxNetSize {
		return nil, fmt.Errorf("generate %s: skeleton leaves an infeasible budget", sh.name)
	}

	const clusterSize = 16
	clusters := (n + clusterSize - 1) / clusterSize
	side := 1
	for side*side < clusters {
		side++
	}
	members := func(c int) (lo, hi int) {
		lo, hi = c*clusterSize, (c+1)*clusterSize
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	near := func(c int) []int {
		var cs []int
		r, col := c/side, c%side
		for dr := -1; dr <= 1; dr++ {
			for dc := -1; dc <= 1; dc++ {
				nr, nc := r+dr, col+dc
				if nr >= 0 && nc >= 0 && nr < side && nc < side && nr*side+nc < clusters {
					cs = append(cs, nr*side+nc)
				}
			}
		}
		return cs
	}

	seen := make(map[int]bool, maxNetSize)
	for _, size := range netSizes(rng, restPins, restNets) {
		home := rng.Intn(clusters)
		hlo, hhi := members(home)
		nb := near(home)
		clear(seen)
		net := make([]int, 0, size)
		for tries := 0; len(net) < size; tries++ {
			var m int
			switch r := rng.Float64(); {
			case tries > 40*size || r >= 0.95:
				m = rng.Intn(n)
			case r < 0.70:
				m = hlo + rng.Intn(hhi-hlo)
			default:
				lo, hi := members(nb[rng.Intn(len(nb))])
				m = lo + rng.Intn(hi-lo)
			}
			if !seen[m] {
				seen[m] = true
				net = append(net, m)
			}
		}
		all = append(all, net)
	}

	b := hypergraph.NewBuilder()
	for m := 0; m < n; m++ {
		b.AddModule(fmt.Sprintf("m%d", m))
	}
	for i, net := range all {
		if err := b.AddNet(fmt.Sprintf("n%d", i), net...); err != nil {
			return nil, fmt.Errorf("generate %s: %w", sh.name, err)
		}
	}
	h := b.Build()
	if st := h.Stats(); st.Modules != n || st.Nets != nets || st.Pins != pins {
		return nil, fmt.Errorf("generate %s: got %+v", sh.name, st)
	}
	if !h.IsConnected() {
		return nil, fmt.Errorf("generate %s: disconnected", sh.name)
	}
	return h, nil
}

// skeleton returns the size s of the shape's skeleton nets and their
// count ⌈(n−1)/(s−1)⌉: the smallest s >= 3 whose skeleton takes at most
// half the nets and half the pins. The skeleton nets are the first count
// nets of a generated netlist (n0, n1, ...).
func skeleton(sh shape) (s, count int) {
	n := sh.modules
	nets := func(s int) int { return (n - 1 + s - 2) / (s - 1) }
	for s = 3; s < maxNetSize && (nets(s) > sh.nets/2 || nets(s)*s > sh.pins/2); s++ {
	}
	return s, nets(s)
}

// netSizes draws count sizes of 2 + Geometric(p) with mean pins/count,
// capped at maxNetSize, then nudges random entries until they sum to
// pins exactly.
func netSizes(rng *rand.Rand, pins, count int) []int {
	if count == 0 {
		return nil
	}
	p := 0.95
	if mean := float64(pins) / float64(count); mean > 2.05 {
		p = 1 / (mean - 1)
	}
	sizes := make([]int, count)
	total := 0
	for i := range sizes {
		sz := 2
		for sz < maxNetSize && rng.Float64() > p {
			sz++
		}
		sizes[i] = sz
		total += sz
	}
	for total != pins {
		i := rng.Intn(count)
		switch {
		case total < pins && sizes[i] < maxNetSize:
			sizes[i]++
			total++
		case total > pins && sizes[i] > 2:
			sizes[i]--
			total--
		}
	}
	return sizes
}
