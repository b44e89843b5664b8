package core

import (
	"math/rand"
	"testing"
	"time"

	"bsub/internal/engine"
	"bsub/internal/sim"
	"bsub/internal/tracegen"
	"bsub/internal/workload"
)

func adaptiveFixture(t *testing.T, seed int64) sim.Config {
	t.Helper()
	tr, err := tracegen.Generate(tracegen.Small(seed))
	if err != nil {
		t.Fatal(err)
	}
	ks := workload.NewTrendKeySet()
	rng := rand.New(rand.NewSource(seed))
	interests := workload.Interests(ks, tr.Nodes, rng)
	rates, err := workload.Rates(tr.Centrality(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Trace:     tr,
		Interests: interests,
		Messages:  workload.GenerateMessages(ks, rates, tr.Span(), rng),
		TTL:       4 * time.Hour,
		Seed:      seed,
	}
}

func TestDFModeValidation(t *testing.T) {
	cfg := DefaultConfig(0.1)
	cfg.DFMode = engine.DFFeedback // without TargetFPR
	b := New(cfg)
	if err := b.Init(&fakeEnv{nodes: 2, ttl: time.Hour}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("DFFeedback without a target FPR accepted")
	}
	cfg = DefaultConfig(0.1)
	cfg.DFMode = engine.DFMode(99)
	b = New(cfg)
	if err := b.Init(&fakeEnv{nodes: 2, ttl: time.Hour}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("unknown DF mode accepted")
	}
}

func TestDFOnlineEq5EndToEnd(t *testing.T) {
	// The online Eq. 5 mode (Section VII-B) must run a full simulation
	// sanely and stay in the same delivery regime as a hand-tuned fixed
	// DF.
	simCfg := adaptiveFixture(t, 61)

	fixed, err := sim.Run(simCfg, New(DefaultConfig(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	adaptiveCfg := DefaultConfig(0) // DF recomputed per broker online
	adaptiveCfg.DFMode = engine.DFOnlineEq5
	adaptive, err := sim.Run(simCfg, New(adaptiveCfg))
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Delivered == 0 {
		t.Fatal("online-Eq.5 mode delivered nothing")
	}
	if adaptive.DeliveryRatio() < fixed.DeliveryRatio()*0.7 {
		t.Errorf("online-Eq.5 delivery %.3f far below fixed-DF %.3f",
			adaptive.DeliveryRatio(), fixed.DeliveryRatio())
	}
	t.Logf("fixed:    %s", fixed)
	t.Logf("adaptive: %s", adaptive)
}

func TestDFFeedbackEndToEnd(t *testing.T) {
	simCfg := adaptiveFixture(t, 62)
	cfg := DefaultConfig(0)
	cfg.DFMode = engine.DFFeedback
	cfg.TargetFPR = 0.02
	rep, err := sim.Run(simCfg, New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered == 0 {
		t.Fatal("feedback mode delivered nothing")
	}
	t.Logf("feedback: %s", rep)
}

// The white-box DF-retuning tests (feedback direction, online Eq. 5
// degree scaling) live in internal/engine with the retuning logic.
