package filter

import (
	"time"

	"bsub/internal/tcbf"
)

// Packed is the default backend: the paper's partitioned packed-counter
// TCBF, unchanged. Its Filter is a thin wrapper around tcbf.Partitioned
// — every method either promotes the already-annotated hot-path method
// or devirtualizes the peer with a pointer type assertion, so the seam
// adds no allocations and no measurable dispatch cost to the contact
// loop (see BenchmarkEngineContact and TestContactAllocationFree).
type Packed struct{}

// Name implements Backend.
func (Packed) Name() string { return "tcbf" }

// Laws implements Backend: packed TCBF is the reference — it keeps every
// contract property.
func (Packed) Laws() Laws {
	return Laws{
		NoFalseNegatives: true,
		MergeCommutative: true,
		AdditiveAMerge:   true,
		ExactCounters:    true,
		RoundTripExact:   true,
	}
}

// Validate implements Backend.
func (Packed) Validate(cfg tcbf.Config, partitions int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return validatePartitions(partitions)
}

// New implements Backend.
func (Packed) New(cfg tcbf.Config, partitions int, now time.Duration) (Filter, error) {
	p, err := tcbf.NewPartitioned(cfg, partitions, now)
	if err != nil {
		return nil, err
	}
	return &packedFilter{*p}, nil
}

// validatePartitions mirrors tcbf.NewPartitioned's range check so a bad
// partition count is caught at the Validate boundary, before any filter
// exists.
func validatePartitions(partitions int) error {
	if partitions < 1 || partitions > 255 {
		return errPartitions(partitions)
	}
	return nil
}

// packedFilter adapts tcbf.Partitioned to the Filter interface. The
// embedded value (one pointer hop fewer to the counters than a pointer
// would be) promotes every same-signature method; only the
// operations whose contract mentions another Filter (merge, preference,
// quantize-copy) need devirtualizing overrides.
type packedFilter struct {
	tcbf.Partitioned
}

var _ Quantizer = (*packedFilter)(nil)

// AMerge implements Filter.
//
//bsub:hotpath
func (p *packedFilter) AMerge(other Filter, now time.Duration) error {
	o, ok := other.(*packedFilter)
	if !ok {
		return errPeerBackend("tcbf", other)
	}
	return p.Partitioned.AMerge(&o.Partitioned, now)
}

// MMerge implements Filter.
//
//bsub:hotpath
func (p *packedFilter) MMerge(other Filter, now time.Duration) error {
	o, ok := other.(*packedFilter)
	if !ok {
		return errPeerBackend("tcbf", other)
	}
	return p.Partitioned.MMerge(&o.Partitioned, now)
}

// PreferencePre implements Filter with the receiver as self.
//
//bsub:hotpath
func (p *packedFilter) PreferencePre(k tcbf.PreKey, peer Filter, now time.Duration) (float64, error) {
	o, ok := peer.(*packedFilter)
	if !ok {
		return 0, errPeerBackend("tcbf", peer)
	}
	return tcbf.PreferencePartitionedPre(k, &o.Partitioned, &p.Partitioned, now)
}

// QuantizeCopy implements Quantizer; WireSize is promoted from
// tcbf.Partitioned.
//
//bsub:hotpath
func (p *packedFilter) QuantizeCopy(dst Filter, mode tcbf.CounterMode, now time.Duration) (int, error) {
	o, ok := dst.(*packedFilter)
	if !ok {
		return 0, errPeerBackend("tcbf", dst)
	}
	return p.Partitioned.QuantizeCopyTo(&o.Partitioned, mode, now)
}
