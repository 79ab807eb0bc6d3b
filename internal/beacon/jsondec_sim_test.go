package beacon_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	. "qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/geom"
	"qtag/internal/qtag"
)

// TestJSONDecoderTakesWhatTheTagsSend: every beacon a campaign
// simulation emits — organic traffic, the commercial tag's and every
// adversarial actor's — marshals to JSON that the JSON decoder takes
// itself, one event at a time and as one array; so does the payload the
// generated JS tag builds. Were one of them declined, its traffic would
// quietly go back to encoding/json.
func TestJSONDecoderTakesWhatTheTagsSend(t *testing.T) {
	var (
		mu     sync.Mutex
		events []Event
	)
	cfg := campaign.Config{
		Seed: 9, Campaigns: 6, ImpressionsPerCampaign: 40, BothCampaigns: 2, SpreadOver: time.Hour,
		ExtraSink: SinkFunc(func(e Event) error {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, e)
			return nil
		}),
	}
	for _, kind := range []campaign.ActorKind{campaign.ActorHonest, campaign.ActorReplayFarm, campaign.ActorAdStacking,
		campaign.ActorHiddenIframe, campaign.ActorSpoofedInView, campaign.ActorDuplicateFlood} {
		cfg.Adversaries = append(cfg.Adversaries, campaign.ActorSpec{Kind: kind, CampaignID: "actor-" + string(kind), Impressions: 5, Replays: 2})
	}
	campaign.New(cfg).Run()
	if len(events) < 500 {
		t.Fatalf("the simulation emitted only %d beacons", len(events))
	}
	for _, e := range events {
		body, _ := json.Marshal(e)
		if !DecodesJSONItself(body) {
			t.Fatalf("declined %s", body)
		}
	}
	if body, _ := json.Marshal(events); !DecodesJSONItself(body) {
		t.Fatal("declined the simulation's beacons as one array")
	}

	// The tag's sendBeacon payload: JSON.stringify of these keys in this
	// order, with toISOString's millisecond UTC time.
	js := qtag.GenerateJS(qtag.Config{}, "https://m.example/v1/events", geom.Size{W: 300, H: 250})
	for _, key := range []string{"impression_id:", "campaign_id:", "source: 'qtag'", "type:", "at: new Date().toISOString()"} {
		if !strings.Contains(js, key) {
			t.Fatalf("the JS tag's payload no longer has %q", key)
		}
	}
	tag := `{"impression_id":"imp-7f3a","campaign_id":"camp-1","source":"qtag","type":"in-view","at":"2019-03-01T12:00:01.250Z"}`
	if !DecodesJSONItself([]byte(tag)) {
		t.Fatalf("declined the tag's payload %s", tag)
	}
}
