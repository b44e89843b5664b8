package main

import (
	"fmt"
	"time"

	"bsub/internal/core"
	"bsub/internal/experiments"
	"bsub/internal/filter"
	"bsub/internal/metrics"
	"bsub/internal/sim"
	"bsub/internal/trace"
	"bsub/internal/workload"
)

// simRun is one sim.Run of B-SUB: the report, the wall time of sim.Run
// alone, and the engine state read from the protocol at the end.
type simRun struct {
	rep            metrics.Report
	wall           time.Duration
	carriedMean    float64
	brokerFraction float64
}

// runBSub runs B-SUB over one input with one worker. With a recorder the
// sources, the protocol and the relay-filter backend are wrapped in
// spans; without one only each OnContact is timed, into lat.
func runBSub(cfg sim.Config, pcfg core.Config, rec *recorder, lat *[]int64) (simRun, error) {
	cfg.Workers = 1
	if rec != nil {
		pcfg.Backend = tracedBackend{inner: filter.Packed{}, rec: rec}
		if cfg.Source != nil {
			cfg.Source = &tracedSource{inner: cfg.Source, rec: rec}
		}
		if cfg.MsgSource == nil {
			cfg.MsgSource = workload.SliceSource(cfg.Messages)
		}
		cfg.MsgSource = &tracedMsgSource{inner: cfg.MsgSource, rec: rec}
	}
	bs := core.New(pcfg)
	proto := &timedProtocol{inner: bs, rec: rec, lat: lat}
	t0 := time.Now()
	rep, err := sim.Run(cfg, proto)
	wall := time.Since(t0)
	if err != nil {
		return simRun{}, err
	}
	carried := 0
	for id := range cfg.Interests {
		carried += bs.CarriedCount(trace.NodeID(id))
	}
	return simRun{
		rep:            rep,
		wall:           wall,
		carriedMean:    ratio(float64(carried), float64(len(cfg.Interests))),
		brokerFraction: bs.MeanBrokerFraction(),
	}, nil
}

// runNull drives cfg's inputs through the no-op protocol and returns
// contacts per second of sim.Run: the executor's ceiling.
func runNull(cfg sim.Config) (float64, error) {
	cfg.Workers = 1
	t0 := time.Now()
	rep, err := sim.Run(cfg, nullProtocol{})
	if err != nil {
		return 0, err
	}
	return ratio(float64(rep.Contacts), time.Since(t0).Seconds()), nil
}

// simRep turns one sim.Run into the workload-independent repetition
// record.
func simRep(setup time.Duration, r simRun, lat []int64, rec *recorder, null float64) repOut {
	rep := r.rep
	out := repOut{
		setup: setup,
		wall:  r.wall,
		work:  rep.Contacts,
		lat:   lat,
		outputs: fmt.Sprintf("contacts=%d delivered=%d forwardings=%d control=%d",
			rep.Contacts, rep.Delivered, rep.Forwardings, rep.ControlBytes),
		attempted: 1,
		det: map[string]float64{
			"delivery_ratio":    ratio(float64(rep.Delivered), float64(rep.Deliverable)),
			"fwd_per_delivered": ratio(float64(rep.Forwardings), float64(rep.DeliveryEvents)),
			"bytes_per_contact": ratio(float64(rep.ControlBytes), float64(rep.Contacts)),
		},
	}
	if rec == nil {
		return out
	}
	c := float64(rep.Contacts)
	w := float64(r.wall)
	src, msg := float64(rec.nanos[opSourceNext].Load()), float64(rec.nanos[opMsgNext].Load())
	proto := float64(rec.nanos[opContact].Load() + rec.nanos[opMessage].Load())
	filt := float64(rec.filterNanos())
	out.layers = map[string]float64{
		"tracegen.next_ns":                rec.meanNs(opSourceNext),
		"tracegen.share":                  ratio(src, w),
		"workload.share":                  ratio(msg, w),
		"sim.self_share":                  ratio(w-src-msg-proto, w),
		"sim.null_contacts_per_s":         null,
		"core.contact_ns":                 rec.meanNs(opContact),
		"core.message_ns":                 rec.meanNs(opMessage),
		"core.self_share":                 ratio(proto-filt, w),
		"engine.carried_mean":             r.carriedMean,
		"engine.broker_fraction":          r.brokerFraction,
		"engine.forwardings_per_contact":  ratio(float64(rep.Forwardings), c),
		"engine.replications_per_contact": ratio(float64(rep.Replications), c),
		"engine.false_injection_ratio":    ratio(float64(rep.FalseInjections), float64(rep.Replications)),
	}
	addFilterLayers(out.layers, rec, w, c)
	return out
}

// addFilterLayers reports the relay-filter spans against the timed wall
// time w (ns) and the number of contacts c.
func addFilterLayers(m map[string]float64, rec *recorder, w, c float64) {
	calls := func(o op) float64 { return float64(rec.calls[o].Load()) }
	m["filter.share"] = ratio(float64(rec.filterNanos()), w)
	m["filter.encode_ns"] = rec.meanNs(opEncode)
	m["filter.decode_ns"] = rec.meanNs(opDecode)
	m["filter.merge_ns"] = rec.meanNs(opMerge)
	m["filter.query_ns"] = rec.meanNs(opQuery)
	m["filter.advance_ns"] = rec.meanNs(opAdvance)
	m["filter.encode_per_contact"] = ratio(calls(opEncode), c)
	m["filter.decode_per_contact"] = ratio(calls(opDecode), c)
	m["filter.merge_per_contact"] = ratio(calls(opMerge), c)
	m["filter.query_per_contact"] = ratio(calls(opQuery), c)
	m["filter.advance_per_contact"] = ratio(calls(opAdvance), c)
	m["filter.encode_bytes_per_contact"] = ratio(float64(rec.encodeBytes.Load()), c)
	m["filter.query_per_encode"] = ratio(calls(opQuery), calls(opEncode))
}

// scaleWorkload is B-SUB over the streamed Scale(nodes) population: the
// tracegen contact stream plus the workload message stream, consumed
// while the simulation runs.
func scaleWorkload(nodes int) repFunc {
	return func(seed int64, rec *recorder, lat []int64) (repOut, error) {
		streams := func() (sim.Config, error) {
			ts, interests, msgs, err := experiments.ScaleStreams(nodes, seed)
			if err != nil {
				return sim.Config{}, err
			}
			return sim.Config{Source: ts, MsgSource: msgs, Interests: interests,
				TTL: experiments.ScaleTTL, Seed: seed}, nil
		}
		t0 := time.Now()
		cfg, err := streams()
		if err != nil {
			return repOut{}, err
		}
		setup := time.Since(t0)
		r, err := runBSub(cfg, core.DefaultConfig(0.1), rec, &lat)
		if err != nil {
			return repOut{}, err
		}
		var null float64
		if rec != nil {
			if cfg, err = streams(); err != nil {
				return repOut{}, err
			}
			if null, err = runNull(cfg); err != nil {
				return repOut{}, err
			}
		}
		return simRep(setup, r, lat, rec, null), nil
	}
}
