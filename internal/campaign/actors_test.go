package campaign_test

import (
	"reflect"
	"testing"

	"qtag/internal/beacon"
	. "qtag/internal/campaign"
	"qtag/internal/faults"
	"qtag/internal/obs"
	"qtag/internal/simrand"
)

// captureSink records every submission in order.
type captureSink struct{ events []beacon.Event }

func (c *captureSink) Submit(e beacon.Event) error {
	c.events = append(c.events, e)
	return nil
}

// TestRunActorDeterministic: same seed, same beacon stream and same
// ground-truth spans — byte for byte.
func TestRunActorDeterministic(t *testing.T) {
	for _, kind := range []ActorKind{
		ActorHonest, ActorReplayFarm, ActorAdStacking,
		ActorHiddenIframe, ActorSpoofedInView, ActorDuplicateFlood,
	} {
		run := func() ([]beacon.Event, []obs.LifecycleSpan, int) {
			sink := &captureSink{}
			tr := obs.NewLifecycleTracer(ActorEpoch)
			n := RunActor(ActorSpec{Kind: kind, CampaignID: "camp-x", Impressions: 20}, simrand.New(7), sink, tr)
			return sink.events, tr.Spans(), n
		}
		e1, s1, n1 := run()
		e2, s2, n2 := run()
		if n1 == 0 {
			t.Fatalf("%s emitted nothing", kind)
		}
		if n1 != n2 || !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%s is not deterministic", kind)
		}
		// One ground-truth span per impression, correctly tagged.
		if len(s1) != 20 {
			t.Fatalf("%s recorded %d oracle spans, want 20", kind, len(s1))
		}
		for _, sp := range s1 {
			if sp.Detail != kind.FraudTag() {
				t.Fatalf("%s span detail = %q, want %q", kind, sp.Detail, kind.FraudTag())
			}
		}
	}
}

// TestActorFraudTags: the fraud/honest split and tag format the
// oracle depends on.
func TestActorFraudTags(t *testing.T) {
	if ActorHonest.Fraudulent() {
		t.Fatal("honest marked fraudulent")
	}
	for _, k := range []ActorKind{ActorReplayFarm, ActorAdStacking, ActorHiddenIframe, ActorSpoofedInView, ActorDuplicateFlood} {
		if !k.Fraudulent() {
			t.Fatalf("%s not marked fraudulent", k)
		}
		if k.FraudTag() != "fraud:"+string(k) {
			t.Fatalf("%s tag = %q", k, k.FraudTag())
		}
	}
	if ActorHonest.FraudTag() != "honest" {
		t.Fatalf("honest tag = %q", ActorHonest.FraudTag())
	}
}

// TestSimulatorAdversaries: Config.Adversaries runs actors against
// the simulation sink and their ground truth lands in Result.Trace,
// separable from organic traffic by OracleLabels.
func TestSimulatorAdversaries(t *testing.T) {
	cfg := Config{
		Seed: 11, Campaigns: 2, ImpressionsPerCampaign: 20, BothCampaigns: 1,
		TraceLifecycle: true,
		Adversaries: []ActorSpec{
			{Kind: ActorHonest, CampaignID: "camp-clean", Impressions: 15},
			{Kind: ActorSpoofedInView, CampaignID: "camp-spoof", Impressions: 15},
		},
	}
	res := New(cfg).Run()
	if got := res.Aggregate.Totals("camp-spoof").Viewed[beacon.SourceQTag]; got != 15 {
		t.Fatalf("spoofed in-views missing from the counts: %d impressions viewed", got)
	}
	labels := OracleLabels(res.Trace)
	if fraud, ok := labels["camp-spoof"]; !ok || !fraud {
		t.Fatalf("oracle labels = %v, want camp-spoof fraudulent", labels)
	}
	if fraud, ok := labels["camp-clean"]; !ok || fraud {
		t.Fatalf("oracle labels = %v, want camp-clean honest", labels)
	}
	// Organic campaigns carry no actor tags and stay out of the label set.
	if _, ok := labels["camp-001"]; ok {
		t.Fatalf("organic campaign leaked into oracle labels: %v", labels)
	}

	// Determinism end to end, adversaries included.
	res2 := New(cfg).Run()
	if !reflect.DeepEqual(res.Beacons.Events(), res2.Beacons.Events()) {
		t.Fatal("adversarial runs are not reproducible")
	}
}

// TestFaultDuplicateInjection: the Duplicate knob re-submits accepted
// events; the store absorbs them while the dup hook sees every one.
func TestFaultDuplicateInjection(t *testing.T) {
	store := beacon.NewStore()
	dups := 0
	store.AddDupObserver(func(beacon.Event) { dups++ })
	sink := faults.NewSink(store, simrand.New(3), faults.Profile{Duplicate: 0.5})
	n := RunActor(ActorSpec{Kind: ActorHonest, CampaignID: "camp-dup", Impressions: 100}, simrand.New(3), sink, nil)
	snap := sink.Stats()
	if snap.Duplicated == 0 {
		t.Fatal("no duplicates injected at rate 0.5")
	}
	if int64(dups) != snap.Duplicated {
		t.Fatalf("store dup hook saw %d, injector reports %d", dups, snap.Duplicated)
	}
	// Every actor submission is distinct, so the store holds exactly n:
	// the injected re-submissions were absorbed, not double-counted.
	if store.Len() != n {
		t.Fatalf("store len %d, want %d (injected dups must be absorbed)", store.Len(), n)
	}
}
