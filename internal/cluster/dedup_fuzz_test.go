package cluster

import (
	"testing"
	"time"

	"github.com/qamarket/qamarket/internal/sqldb"
)

// FuzzDedupWindow drives the at-most-once window through arbitrary
// claim / settle / release / advance / sweep scripts and checks it
// against a map model of what each key may be:
//
//   - a settled key is never owned again while the window holds it — in
//     particular, not within its TTL: two owners would run the query
//     twice;
//   - a released outcome never yields a payload again, and a held one
//     replays exactly what was settled;
//   - a release changes only an outcome the same run settled, and keeps
//     its key;
//   - the key count and dedup_retained_bytes agree with the model.
//
// Each op takes two bytes, an op byte and an argument. Keys are 4 runs ×
// 8 query ids, so scripts collide. The window's clock is moved by
// shifting its base back in whole minutes against an 8.5-minute TTL, so
// the real time a script takes never decides an eviction.
func FuzzDedupWindow(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0, 1})                   // claim, settle, release, re-claim
	f.Add([]byte{0, 9, 1, 9, 0, 9, 3, 9, 4, 0, 0, 9})       // settled key after its TTL is owned again
	f.Add([]byte{0, 2, 1, 0x82, 0, 2, 0, 3, 2, 3, 1, 3})    // an uncacheable settle, a foreign release
	f.Add([]byte{0, 5, 0, 5, 1, 5, 2, 0x45, 3, 5, 1, 6, 4}) // duplicate in flight, release by another run

	const (
		ttl    = 8*time.Minute + 30*time.Second
		runs   = 4
		perRun = 8
	)
	var small ColBlock
	small.FillFromRows([]string{"n", "s"}, []sqldb.Row{{sqldb.NewInt(7), sqldb.NewText("x")}})
	big := &ColBlock{Columns: []string{"n"}, Rows: packRowsMax + 1, Sel: make([]int32, packRowsMax+1)}
	big.Cols = []Col{{Kinds: make([]byte, packRowsMax+1), Ints: make([]int64, packRowsMax+1)}}
	for i := range big.Cols[0].Kinds {
		big.Cols[0].Kinds[i] = 'i'
	}
	stop := make(chan struct{})
	close(stop) // a duplicate of an in-flight key answers at once

	type entry struct {
		seq      uint64
		run      int
		at       time.Duration // model minutes at settle
		rep      executeReply
		released bool
		bytes    int64
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		clk := newFakeClock()
		d := newDedupWindow(ttl, clk)
		runIDs := []string{"r0", "r1", "r2", "r3"}
		key := func(k int) dedupKey { return d.key(runIDs[k/perRun], true, int64(k%perRun), "SELECT 1") }
		var (
			now      time.Duration // the model's clock
			inFlight = map[int]bool{}
			settled  = map[int]*entry{}
			seqs     []uint64 // every number settle returned, for releases to name
		)
		evict := func() {
			for k, e := range settled {
				if now-e.at > ttl {
					delete(settled, k)
				}
			}
		}
		for len(script) >= 2 {
			op, arg := script[0]%5, int(script[1])
			script = script[2:]
			k := arg % (runs * perRun)
			switch op {
			case 0: // claim
				rec, seq, hit, owner := d.claim(key(k), stop)
				e, isSettled := settled[k]
				switch {
				case isSettled:
					if owner || !hit || seq != e.seq {
						t.Fatalf("claim of settled key %d: owner=%v hit=%v seq=%d, want the hit of outcome %d", k, owner, hit, seq, e.seq)
					}
					if rec.released() != e.released {
						t.Fatalf("claim of key %d: released=%v, model says %v", k, rec.released(), e.released)
					}
					if !e.released {
						if rep, _ := rec.outcome(); rep != e.rep {
							t.Fatalf("key %d replays %+v, settled %+v", k, rep, e.rep)
						}
					}
				case inFlight[k]:
					if owner || !hit || rec.released() {
						t.Fatalf("duplicate of in-flight key %d: owner=%v hit=%v", k, owner, hit)
					}
				default:
					if !owner || hit {
						t.Fatalf("claim of free key %d: owner=%v hit=%v, want the owner", k, owner, hit)
					}
					inFlight[k] = true
				}
			case 1: // settle an in-flight key: bit 7 uncacheable, bit 6 a large result
				if !inFlight[k] {
					continue
				}
				delete(inFlight, k)
				cacheable := arg&0x80 == 0
				res := &small
				if arg&0x40 != 0 {
					res = big
				}
				rep := executeReply{Accepted: true, Rows: res.Rows, ExecMs: float64(arg)}
				seq := d.settle(key(k), d.run(runIDs[k/perRun]), rep, res, cacheable)
				evict()
				if cacheable {
					so, ok := d.record(seq)
					if !ok || so.key != key(k) {
						t.Fatalf("settle of key %d returned %d, which does not name it", k, seq)
					}
					settled[k] = &entry{seq: seq, run: k / perRun, at: now, rep: rep, bytes: so.rec.retained()}
					seqs = append(seqs, seq)
				}
			case 2: // release, by run arg>>6, of a number settle returned (or one past them)
				run := arg >> 6
				var seq uint64
				if i := arg & 0x3f; i < len(seqs) {
					seq = seqs[i]
				} else if len(seqs) > 0 {
					seq = seqs[len(seqs)-1] + uint64(i)
				}
				d.release(d.run(runIDs[run]), []uint64{seq})
				for _, e := range settled {
					if e.seq == seq && e.run == run {
						e.released = true
					}
				}
			case 3: // advance the clock by arg%8+1 minutes
				step := time.Duration(arg%8+1) * time.Minute
				clk.advance(step)
				now += step
			case 4:
				d.sweep()
				evict()
			}
			entries, retained := d.size()
			var want int64
			for _, e := range settled {
				if !e.released {
					want += e.bytes
				}
			}
			if entries != len(inFlight)+len(settled) || retained != want {
				t.Fatalf("window holds %d keys retaining %d bytes, model %d keys and %d bytes",
					entries, retained, len(inFlight)+len(settled), want)
			}
		}
	})
}
