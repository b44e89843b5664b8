// Command bsub-sim runs one simulation of a protocol over a contact trace
// and prints the Section VII metrics.
//
// Usage:
//
//	bsub-sim -protocol bsub -ttl 2h -df 0.138 trace.txt
//	bsub-sim -protocol push -preset haggle -ttl 10h
//	bsub-sim -nodes 100000 -workers 8 -epoch 10m -ttl 6h
//	bsub-sim -nodes 100000 -df 0.1 -ttl 6h -cpuprofile cpu.pprof
//	bsub-sim -nodes 10000 -ttl 6h -workers 2 -trace run.trace
//
// The trace comes either from a file argument (the repository's text
// format, see cmd/tracegen), from a -preset, or — for population-scale
// runs — from -nodes, which streams a synthetic community trace and
// workload without ever materializing them (DESIGN.md §11). The workload
// follows the paper: one weighted Twitter-Trend interest per node,
// message rates proportional to centrality, sizes up to 140 bytes.
// -workers shards contact execution across goroutines and -epoch sets the
// barrier width; results are byte-identical for any setting of either.
// -cpuprofile and -memprofile write runtime/pprof profiles of the run, and
// -trace a runtime/trace execution trace (`go tool trace`).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"bsub/internal/core"
	"bsub/internal/experiments"
	"bsub/internal/profiling"
	"bsub/internal/protocol"
	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/tracegen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bsub-sim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		protoName = flag.String("protocol", "bsub", "protocol: bsub | push | pull")
		preset    = flag.String("preset", "", "trace preset: haggle | mit3day | small (alternative to a trace file)")
		ttl       = flag.Duration("ttl", 2*time.Hour, "message TTL (= maximum tolerable delay)")
		df        = flag.Float64("df", -1, "B-SUB decaying factor per minute (-1 = derive from TTL via Eq. 5)")
		bandwidth = flag.Int("bandwidth", sim.DefaultBandwidthBps, "effective link rate in bits/s")
		seed      = flag.Int64("seed", 1, "random seed for workload and protocol")
		nodes     = flag.Int("nodes", 0, "stream a synthetic scale trace with this many nodes (alternative to a trace file or -preset)")
		workers   = flag.Int("workers", 0, "execution goroutines; 0 = 1; output is identical for any value")
		epoch     = flag.Duration("epoch", 0, "sharding epoch width; 0 = default; output is identical for any value")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
		traceOut  = flag.String("trace", "", "write a runtime/trace execution trace of the run to this file")
	)
	flag.Parse()

	stop, err := profiling.Start(*cpuProf, *memProf, *traceOut)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	switch {
	case *nodes < 0 || *nodes == 1:
		return fmt.Errorf("-nodes must be at least 2, got %d", *nodes)
	case *nodes > 0 && (*preset != "" || flag.Arg(0) != ""):
		return errors.New("-nodes streams its own trace; drop the -preset/file argument")
	case *workers < 0 || *workers > sim.MaxWorkers:
		return fmt.Errorf("-workers must be in [0,%d], got %d", sim.MaxWorkers, *workers)
	case *epoch < 0:
		return fmt.Errorf("-epoch must be non-negative, got %v", *epoch)
	}

	if *nodes > 0 {
		return runScale(*nodes, *workers, *epoch, *protoName, *ttl, *df, *bandwidth, *seed)
	}

	tr, err := loadTrace(*preset, flag.Arg(0), *seed)
	if err != nil {
		return err
	}
	fixture, err := experiments.NewFixture(tr.Name, tr, *seed)
	if err != nil {
		return err
	}

	var proto sim.Protocol
	switch *protoName {
	case "push":
		proto = protocol.NewPush()
	case "pull":
		proto = protocol.NewPull()
	case "bsub":
		var cfg core.Config
		if *df >= 0 {
			cfg = core.DefaultConfig(*df)
		} else {
			cfg = fixture.BSubConfig(*ttl)
			fmt.Fprintf(os.Stderr, "derived DF = %.4f/min for TTL %v (Eq. 5)\n", cfg.DecayPerMinute, *ttl)
		}
		proto = core.New(cfg)
	default:
		return fmt.Errorf("unknown protocol %q", *protoName)
	}

	report, err := sim.Run(sim.Config{
		Trace:        fixture.Trace,
		Interests:    fixture.Interests,
		Messages:     fixture.Messages,
		TTL:          *ttl,
		BandwidthBps: *bandwidth,
		Seed:         *seed,
		Workers:      *workers,
		Epoch:        *epoch,
	}, proto)
	if err != nil {
		return err
	}

	s := tr.Stats()
	fmt.Printf("trace:     %s (%d nodes, %d contacts, span %v)\n",
		s.Name, s.Nodes, s.Contacts, s.Span.Round(time.Minute))
	fmt.Printf("workload:  %d messages, TTL %v\n", len(fixture.Messages), *ttl)
	fmt.Printf("result:    %s\n", report)
	fmt.Printf("traffic:   control %d B, data %d B\n", report.ControlBytes, report.DataBytes)
	fmt.Printf("replicas:  %d producer-to-broker, %d falsely injected\n", report.Replications, report.FalseInjections)
	return nil
}

// runScale simulates a protocol over a streamed -nodes population: the
// contact and message streams are generated on the fly, so memory stays
// proportional to the population, not the event count.
func runScale(nodes, workers int, epoch time.Duration, protoName string, ttl time.Duration, df float64, bandwidth int, seed int64) error {
	ts, interests, msgs, err := experiments.ScaleStreams(nodes, seed)
	if err != nil {
		return err
	}
	var proto sim.Protocol
	switch protoName {
	case "push":
		proto = protocol.NewPush()
	case "pull":
		proto = protocol.NewPull()
	case "bsub":
		if df < 0 {
			df = 0.1 // Eq. 5 derivation needs a materialized trace; use the tuned default
			fmt.Fprintf(os.Stderr, "streamed trace: using default DF = %.4f/min (pass -df to override)\n", df)
		}
		proto = core.New(core.DefaultConfig(df))
	default:
		return fmt.Errorf("unknown protocol %q", protoName)
	}
	started := time.Now()
	report, err := sim.Run(sim.Config{
		Source:       ts,
		MsgSource:    msgs,
		Interests:    interests,
		TTL:          ttl,
		BandwidthBps: bandwidth,
		Seed:         seed,
		Workers:      workers,
		Epoch:        epoch,
	}, proto)
	if err != nil {
		return err
	}
	wall := time.Since(started)
	fmt.Printf("trace:     scale-%d (streamed, %d nodes, %d linked pairs, %d contacts)\n",
		nodes, nodes, ts.Links(), report.Contacts)
	fmt.Printf("workload:  %d messages (streamed), TTL %v\n", report.Created, ttl)
	fmt.Printf("result:    %s\n", report)
	fmt.Printf("traffic:   control %d B, data %d B\n", report.ControlBytes, report.DataBytes)
	fmt.Printf("replicas:  %d producer-to-broker, %d falsely injected\n", report.Replications, report.FalseInjections)
	fmt.Printf("engine:    %d workers, %v wall, %.0f contacts/s\n",
		max(workers, 1), wall.Round(time.Millisecond), float64(report.Contacts)/wall.Seconds())
	return nil
}

func loadTrace(preset, path string, seed int64) (*trace.Trace, error) {
	switch {
	case preset != "" && path != "":
		return nil, errors.New("give either -preset or a trace file, not both")
	case preset == "" && path == "":
		return nil, errors.New("need a trace: pass a file or -preset haggle|mit3day|small")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	case preset == "haggle":
		return tracegen.Generate(tracegen.HaggleInfocom06(seed))
	case preset == "mit3day":
		return tracegen.Generate(tracegen.MITReality3Day(seed))
	case preset == "small":
		return tracegen.Generate(tracegen.Small(seed))
	default:
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
}
