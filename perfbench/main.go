// Command perfbench is the repository's end-to-end benchmark. One run
// builds a workload's inputs from a seed, times the workload's
// operations for a fixed number of seconds in this process, checks every
// output, and prints one JSON result line. See README.md.
//
//	go run . --workload flat-melo --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median, and the last build is the one measured.
const setupRepeats = 3

// workload is one benchmark scenario. setup builds a fresh instance
// (inputs, and for the service a running daemon); round runs one round
// of operations and keeps their outputs; check verifies the outputs of
// the round just run and drops them, with the clock stopped; finish adds
// the traced run's whole-run figures; close releases the instance.
type workload interface {
	setup(r *run) error
	round(r *run, i int) error
	check(r *run)
	finish(r *run)
	close()
}

var workloads = map[string]func() workload{
	"flat-melo":     func() workload { return &flatMELO{} },
	"multilevel-k2": func() workload { return &multilevelK2{} },
	"service-eco":   func() workload { return &serviceECO{} },
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opKind accumulates one kind of operation: how many were attempted,
// how many failed (an error from the program or a failed check), and
// the latency of each operation, indexed by its op id.
type opKind struct {
	name      string
	attempted int
	failed    int
	lat       map[int]float64
	// known marks a kind whose every failure is a documented fault of
	// the program (README, "Known faults"); its failures leave the run
	// correct.
	known bool
}

// run is the state one benchmark process carries through setup, the
// timed phase and the checks.
type run struct {
	seed   int64
	traced bool

	kinds  []*opKind
	nextID int
	// failedIDs marks operations that failed; unexpected counts failures
	// of kinds with no documented fault.
	failedIDs  map[int]bool
	unexpected int

	// cutRounds is the number of leading rounds netcut_mean covers.
	cutRounds int
	cuts      []int

	rounds  int
	elapsed float64
	layers  *layerTimes
}

func (r *run) kind(name string) *opKind {
	for _, k := range r.kinds {
		if k.name == name {
			return k
		}
	}
	k := &opKind{name: name, lat: map[int]float64{}}
	r.kinds = append(r.kinds, k)
	return k
}

// begin registers an attempted operation of the given kind and returns
// its id.
func (r *run) begin(kind string) int {
	k := r.kind(kind)
	k.attempted++
	id := r.nextID
	r.nextID++
	return id
}

// done records a completed operation's latency.
func (r *run) done(kind string, id int, lat time.Duration) {
	r.kind(kind).lat[id] = lat.Seconds()
}

// fail marks an operation failed and says why on standard error.
func (r *run) fail(kind string, id int, err error) {
	if r.failedIDs[id] {
		return
	}
	r.failedIDs[id] = true
	k := r.kind(kind)
	k.failed++
	delete(k.lat, id)
	if !k.known {
		r.unexpected++
		fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", kind, id, err)
	}
}

// broken records a failed check that belongs to no single operation.
func (r *run) broken(err error) {
	r.unexpected++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
}

// recordCut adds a checked partition's cut to netcut_mean when it comes
// from one of the leading cutRounds rounds.
func (r *run) recordCut(round, cut int) {
	if round < r.cutRounds {
		r.cuts = append(r.cuts, cut)
	}
}

// passing returns the latencies of a kind's passing operations.
func (r *run) passing(kind string) []float64 {
	var out []float64
	for _, v := range r.kind(kind).lat {
		out = append(out, v)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func main() {
	name := flag.String("workload", "", "workload name (flat-melo, multilevel-k2, service-eco)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload flat-melo|multilevel-k2|service-eco --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, err := execute(mk, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute performs one benchmark run: setupRepeats timed set-ups, the
// timed phase in whole rounds, the checks, then the metrics.
func execute(mk func() workload, seed int64, seconds float64, traced bool) (*resultLine, error) {
	r := &run{seed: seed, traced: traced, failedIDs: map[int]bool{}}
	if traced {
		r.layers = newLayerTimes()
	}
	var setups []float64
	var w workload
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		w = mk()
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	// The timed phase is the sum of the rounds; each round's checks run
	// between rounds with the clock stopped, so the outputs kept for them
	// never outgrow one round.
	var timed time.Duration
	var allocs, mallocs, pauses uint64
	for timed.Seconds() < seconds {
		var ms0, ms1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		if err := w.round(r, r.rounds); err != nil {
			return nil, fmt.Errorf("round %d: %w", r.rounds, err)
		}
		timed += time.Since(t0)
		if traced {
			runtime.ReadMemStats(&ms1)
			allocs += ms1.TotalAlloc - ms0.TotalAlloc
			mallocs += ms1.Mallocs - ms0.Mallocs
			pauses += ms1.PauseTotalNs - ms0.PauseTotalNs
		}
		w.check(r)
		r.rounds++
	}
	r.elapsed = timed.Seconds()
	w.finish(r)

	res := &resultLine{Metrics: map[string]metric{}}
	passed := 0
	for _, k := range r.kinds {
		res.Attempted += k.attempted
		res.Failed += k.failed
		passed += k.attempted - k.failed
		fmt.Printf("ops %-8s attempted %4d failed %4d median %.6f s\n", k.name, k.attempted, k.failed, median(r.passing(k.name)))
	}
	res.Correct = r.unexpected == 0 && passed > 0
	if traced {
		ops := float64(passed)
		r.layers.put("runtime.alloc_mb_per_op", "MB", float64(allocs)/(1<<20)/ops)
		r.layers.put("runtime.mallocs_per_op", "count", float64(mallocs)/ops)
		r.layers.put("runtime.gc_pause_s", "s", float64(pauses)/1e9/ops)
		if err := r.layers.finish(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace attribution: %v\n", err)
			res.Correct = false
		}
		res.Metrics = r.layers.perLayer()
		extra, _ := json.Marshal(r.layers.workloadOnly())
		fmt.Printf("layers %s\n", extra)
		return res, nil
	}
	lat := latencyOf(r)
	var cuts []float64
	for _, c := range r.cuts {
		cuts = append(cuts, float64(c))
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["latency_p50_s"] = metric{lat, "s"}
	res.Metrics["throughput_ops_s"] = metric{float64(passed) / r.elapsed, "1/s"}
	res.Metrics["netcut_mean"] = metric{mean(cuts), "nets"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	fmt.Printf("rounds %d elapsed %.3f s setups %v\n", r.rounds, r.elapsed, setups)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || m.Value <= 0 {
			return nil, fmt.Errorf("metric %s has no value (%v): no passing operation measured it", name, m.Value)
		}
	}
	return res, nil
}

// latencyOf is latency_p50_s: the median latency of the workload's one
// request kind, or, when a workload serves several request kinds, the
// geometric mean of the per-kind medians, so that each kind moves it by
// the same share whatever its absolute cost.
func latencyOf(r *run) float64 {
	var logs float64
	n := 0
	for _, k := range r.kinds {
		if k.known || len(k.lat) == 0 {
			continue
		}
		logs += math.Log(median(r.passing(k.name)))
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logs / float64(n))
}
