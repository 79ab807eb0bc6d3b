package detect

import (
	"strconv"
	"testing"
	"time"

	"qtag/internal/beacon"
)

// BenchmarkObserveAtMaxOpen is Observe with the working set at its cap
// (4 096 open impressions a shard): every event opens an impression, so
// every event evicts the shard's coldest.
func BenchmarkObserveAtMaxOpen(b *testing.B) {
	const shards, perShard = 16, 4096
	d := New(Options{Shards: shards, MaxOpen: shards * perShard, TTL: -1, Now: func() time.Time { return lruT0 }})
	ids := make([]string, 4*shards*perShard) // long evicted by the time one comes round again
	for i := range ids {
		ids[i] = "s1-closed-" + strconv.Itoa(i)
	}
	e := beacon.Event{CampaignID: "camp-1", Type: beacon.EventServed, At: lruT0, Meta: beacon.Meta{AdSize: "300x250"}}
	for _, id := range ids[:2*shards*perShard] {
		e.ImpressionID = id
		d.Observe(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ImpressionID = ids[(2*shards*perShard+i)%len(ids)]
		d.Observe(e)
	}
	b.StopTimer()
	if d.OpenImpressions() > shards*perShard+shards || d.Evicted() < int64(b.N) {
		b.Fatalf("%d open, %d pressure-evicted after %d opens at the cap", d.OpenImpressions(), d.Evicted(), b.N)
	}
}
