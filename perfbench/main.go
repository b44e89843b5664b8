// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time from a seed, checks the program's outputs, and prints one
// JSON result line: the end-to-end metrics with tracing off (-trace 0),
// or the per-layer metrics of a traced run (-trace 1). See README.md for
// the workloads, the metrics and what each layer metric should move.
//
//	go run . -workload live-replay -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// repOut is one repetition of a workload.
type repOut struct {
	setup time.Duration // input construction (and node listen for live)
	wall  time.Duration // the timed section: sim.Run calls, or the replay
	work  int           // contacts (sessions, live) executed in wall
	lat   []int64       // per-contact latency samples, ns
	// p50 and p99 are lat's percentiles in ns, filled in by measure.
	p50, p99 float64
	// outputs is the deterministic fingerprint every repetition of the
	// same seed, traced or not, must reproduce exactly.
	outputs string
	// det holds the deterministic end-to-end metrics.
	det               map[string]float64
	attempted, failed int
	// problems lists failed output checks.
	problems []string
	layers   map[string]float64 // traced repetitions only
}

// repFunc runs one repetition. rec is nil for an untraced repetition.
// lat is a reusable buffer for latency samples.
type repFunc func(seed int64, rec *recorder, lat []int64) (repOut, error)

type metricSpec struct {
	name, unit, better string
}

// endToEnd lists the untraced metrics, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"contacts_per_s", "1/s", "higher"},
	{"contact_p50_us", "us", "lower"},
	{"contact_p99_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"delivery_ratio", "ratio", "higher"},
	{"fwd_per_delivered", "ratio", "lower"},
	{"bytes_per_contact", "B", "lower"},
}

// perLayer lists the traced metrics, in BENCHMARK.json order.
var perLayer = []metricSpec{
	{"tracegen.next_ns", "ns", "lower"},
	{"tracegen.share", "ratio", "lower"},
	{"workload.share", "ratio", "lower"},
	{"sim.self_share", "ratio", "lower"},
	{"sim.null_contacts_per_s", "1/s", "higher"},
	{"core.contact_ns", "ns", "lower"},
	{"core.message_ns", "ns", "lower"},
	{"core.self_share", "ratio", "lower"},
	{"engine.carried_mean", "count", "lower"},
	{"engine.broker_fraction", "ratio", "lower"},
	{"engine.forwardings_per_contact", "count", "lower"},
	{"engine.replications_per_contact", "count", "lower"},
	{"engine.false_injection_ratio", "ratio", "lower"},
	{"filter.share", "ratio", "lower"},
	{"filter.encode_ns", "ns", "lower"},
	{"filter.decode_ns", "ns", "lower"},
	{"filter.merge_ns", "ns", "lower"},
	{"filter.query_ns", "ns", "lower"},
	{"filter.advance_ns", "ns", "lower"},
	{"filter.encode_per_contact", "count", "lower"},
	{"filter.decode_per_contact", "count", "lower"},
	{"filter.merge_per_contact", "count", "lower"},
	{"filter.query_per_contact", "count", "lower"},
	{"filter.advance_per_contact", "count", "lower"},
	{"filter.encode_bytes_per_contact", "B", "lower"},
	{"filter.query_per_encode", "ratio", "lower"},
	{"livenode.session_ns", "ns", "lower"},
	{"livenode.dial_ns", "ns", "lower"},
	{"livenode.frames_per_session", "count", "lower"},
	{"livenode.reads_per_session", "count", "lower"},
	{"livenode.read_wait_share", "ratio", "lower"},
	{"livenode.bytes_per_session", "B", "lower"},
	{"livenode.refunded", "count", "lower"},
	{"livenode.meet_retries", "count", "lower"},
	{"livenode.refused_busy", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// workloads maps each workload name to its repetition.
var workloads = map[string]repFunc{
	"scale-100k":  scaleWorkload(100_000),
	"live-replay": liveReplay,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	// Every workload is a single closed loop, so one P runs all Go code.
	// A second P buys nothing but noise: on a small shared VM, live-replay
	// sessions then wait on cross-vCPU wakeups of the peer goroutine
	// (p99 5-8 ms against 3 ms on one P, and run-to-run swings of 20%),
	// and the simulator's GC moves onto a vCPU whose speed drifts with
	// its neighbours.
	runtime.GOMAXPROCS(1)

	hostLine, err := json.Marshal(map[string]any{
		"host": hostInfo(), "workload": *name, "seed": *seed,
		"seconds": *seconds, "trace": *traced,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(hostLine))

	budget := time.Duration(*seconds * float64(time.Second))
	res, problems, err := measure(fn, *seed, budget, *traced == 1)
	if err != nil {
		fatal(err)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// measure runs repetitions until the budget is spent and summarizes them.
// Untraced, every repetition is untraced. Traced, untraced and traced
// repetitions alternate, so the tracing overhead compares like with like
// under the same host drift. Every repetition must reproduce the first
// one's outputs.
func measure(fn repFunc, seed int64, budget time.Duration, traced bool) (result, []string, error) {
	var (
		plain, tracedReps []repOut
		problems          []string
		lat               []int64
	)
	start := time.Now()
	for i := 0; ; i++ {
		if i >= 2 {
			el := time.Since(start)
			if el+el/time.Duration(i) > budget {
				break
			}
		}
		var rec *recorder
		if traced && i%2 == 1 {
			rec = &recorder{}
		}
		// Start every repetition from a collected heap with its free pages
		// returned to the OS, so each one faults in its memory as the first
		// did, and the resident-set peak is one repetition's peak rather
		// than depending on how much garbage the previous one left resident.
		debug.FreeOSMemory()
		user0, sys0 := cpuTime()
		r, err := fn(seed, rec, lat[:0])
		if err != nil {
			return result{}, nil, err
		}
		// One line per repetition on stderr: CPU time next to wall time
		// tells host slowdowns (CPU time grows with wall) from waiting.
		user, sys := cpuTime()
		fmt.Fprintf(os.Stderr, "perfbench: rep %d traced=%v setup=%.3fs wall=%.3fs user=%.3fs sys=%.3fs work=%d tcp_time_wait=%d\n",
			i, rec != nil, r.setup.Seconds(), r.wall.Seconds(), (user - user0).Seconds(), (sys - sys0).Seconds(), r.work, timeWait())
		lat = r.lat
		r.p50, r.p99 = percentiles(r.lat)
		r.lat = nil
		if rec != nil {
			tracedReps = append(tracedReps, r)
		} else {
			plain = append(plain, r)
		}
	}
	all := append(append([]repOut(nil), plain...), tracedReps...)
	res := result{Metrics: map[string]metric{}}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		problems = append(problems, r.problems...)
		if r.outputs != all[0].outputs {
			problems = append(problems, fmt.Sprintf("outputs differ between repetitions:\n  %s\n  %s", all[0].outputs, r.outputs))
		}
	}
	if res.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	res.Correct = len(problems) == 0

	if !traced {
		// Throughput pools the whole run: all the work over all the timed
		// wall time. On a shared host that runs the same work up to a
		// third slower for seconds at a time, that varies less from run
		// to run than the median repetition does.
		var work int
		var wall time.Duration
		per := map[string][]float64{}
		for _, r := range plain {
			work += r.work
			wall += r.wall
			per["contact_p50_us"] = append(per["contact_p50_us"], r.p50/1e3)
			per["contact_p99_us"] = append(per["contact_p99_us"], r.p99/1e3)
			per["setup_s"] = append(per["setup_s"], r.setup.Seconds())
			for k, v := range r.det {
				per[k] = append(per[k], v)
			}
		}
		per["contacts_per_s"] = []float64{ratio(float64(work), wall.Seconds())}
		per["peak_rss_mb"] = []float64{float64(peakRSS()) / (1 << 20)}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: median(per[m.name]), Unit: m.unit}
		}
		return res, problems, nil
	}

	per := map[string][]float64{}
	for _, r := range tracedReps {
		for k, v := range r.layers {
			per[k] = append(per[k], v)
		}
	}
	var plainWall, tracedWall []float64
	for _, r := range plain {
		plainWall = append(plainWall, r.wall.Seconds())
	}
	for _, r := range tracedReps {
		tracedWall = append(tracedWall, r.wall.Seconds())
	}
	per["trace.overhead_frac"] = []float64{median(tracedWall)/median(plainWall) - 1}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: median(per[m.name]), Unit: m.unit}
	}
	return res, problems, nil
}

// percentiles returns the nearest-rank p50 and p99 of samples (ns),
// sorting them in place.
func percentiles(samples []int64) (p50, p99 float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	slices.Sort(samples)
	rank := func(p float64) float64 {
		i := int(p*float64(len(samples))+0.5) - 1
		return float64(samples[max(0, min(i, len(samples)-1))])
	}
	return rank(0.50), rank(0.99)
}

// median of xs; 0 for none (a layer that does not run on the workload).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
