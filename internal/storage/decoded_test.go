package storage

import (
	"math/rand"
	"testing"
)

// newTestBuf returns a buffer over a disk with n pre-written pages.
func newTestBuf(t *testing.T, capacity, pages int) (*Buffer, []PageID) {
	t.Helper()
	d := NewDisk(64)
	b := NewBuffer(d, capacity)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = b.Alloc()
		data := make([]byte, 64)
		data[0] = byte(i + 1)
		b.Write(ids[i], data)
	}
	b.DropAll()
	b.ResetStats()
	return b, ids
}

func TestDecodedSlotRoundTrip(t *testing.T) {
	b, ids := newTestBuf(t, 4, 2)
	id := ids[0]

	if _, dec, resident := b.ReadDecoded(id); dec != nil || resident {
		t.Fatalf("cold read: decoded=%v resident=%v, want nil/false", dec, resident)
	}
	b.SetDecoded(id, "node-A")
	data, dec, resident := b.ReadDecoded(id)
	if dec != "node-A" || !resident {
		t.Fatalf("warm read: decoded=%v resident=%v", dec, resident)
	}
	if data[0] != 1 {
		t.Fatalf("warm read returned wrong page bytes")
	}
	s := b.Stats()
	if s.DecodeHits != 1 || s.DecodeMisses != 1 {
		t.Fatalf("decode counters = %d/%d, want 1 hit / 1 miss", s.DecodeHits, s.DecodeMisses)
	}
	if s.LogicalReads != 2 || s.PageReads != 1 {
		t.Fatalf("I/O counters perturbed: %+v", s)
	}
}

func TestSetDecodedNonResidentNoop(t *testing.T) {
	b, ids := newTestBuf(t, 0, 1) // capacity 0: nothing is ever resident
	b.SetDecoded(ids[0], "node")
	if _, dec, resident := b.ReadDecoded(ids[0]); dec != nil || resident {
		t.Fatalf("capacity-0 buffer returned a decoded value (%v, %v)", dec, resident)
	}
}

func TestWriteInvalidatesDecodedAndBumpsGeneration(t *testing.T) {
	b, ids := newTestBuf(t, 4, 1)
	id := ids[0]
	b.Read(id)
	b.SetDecoded(id, "stale")
	gen := b.Generation()

	data := make([]byte, 64)
	data[0] = 99
	b.Write(id, data)
	if b.Generation() != gen+1 {
		t.Fatalf("generation %d after write, want %d", b.Generation(), gen+1)
	}
	got, dec, _ := b.ReadDecoded(id)
	if dec != nil {
		t.Fatalf("decoded slot survived a Write: %v", dec)
	}
	if got[0] != 99 {
		t.Fatalf("read stale bytes after write")
	}
}

func TestEvictionDropsDecodedAndFiresHook(t *testing.T) {
	b, ids := newTestBuf(t, 2, 3)
	var evicted []PageID
	var decodedSeen []any
	b.SetOnEvict(func(id PageID, dec any) {
		evicted = append(evicted, id)
		decodedSeen = append(decodedSeen, dec)
	})

	b.Read(ids[0])
	b.SetDecoded(ids[0], "A")
	b.Read(ids[1])
	b.Read(ids[2]) // capacity 2: evicts ids[0], its decoded value with it
	if len(evicted) != 1 || evicted[0] != ids[0] || decodedSeen[0] != "A" {
		t.Fatalf("eviction hook saw %v/%v, want [%d]/[A]", evicted, decodedSeen, ids[0])
	}
	if _, ok := b.Decoded(ids[0]); ok {
		t.Fatal("evicted page still reports a decoded value")
	}
	// Re-reading the evicted page must re-install with an empty slot.
	if _, dec, resident := b.ReadDecoded(ids[0]); dec != nil || resident {
		t.Fatalf("re-read after eviction: decoded=%v resident=%v", dec, resident)
	}

	// DropAll fires the hook for everything still resident.
	evicted = evicted[:0]
	b.DropAll()
	if len(evicted) != 2 {
		t.Fatalf("DropAll evicted %d pages, want 2", len(evicted))
	}
}

func TestSetCapacityShrinkDropsDecoded(t *testing.T) {
	b, ids := newTestBuf(t, 4, 3)
	for _, id := range ids {
		b.Read(id)
		b.SetDecoded(id, int(id))
	}
	b.SetCapacity(1)
	survivors := 0
	for _, id := range ids {
		if _, ok := b.Decoded(id); ok {
			survivors++
		}
	}
	if survivors != 1 {
		t.Fatalf("%d decoded slots survived a shrink to 1 page, want 1", survivors)
	}
}

// TestReadDecodedMatchesRead pins the decoded slot's invisibility to I/O
// accounting: one random read/write trace runs through Read on one buffer
// and through ReadDecoded+SetDecoded on an identical buffer, and after
// every step both must hold the same counters (decode counters aside) and
// the same resident pages. Read never touches a decoded slot, so it is the
// reference the slot-carrying path must reproduce exactly; the trace also
// checks that every decoded value served describes the current page bytes.
func TestReadDecodedMatchesRead(t *testing.T) {
	const pages = 12
	for _, capacity := range []int{0, 1, 3, 8} {
		plain, ids := newTestBuf(t, capacity, pages)
		slotted, _ := newTestBuf(t, capacity, pages)
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		for step := 0; step < 3000; step++ {
			id := ids[rng.Intn(pages)]
			if rng.Intn(6) == 0 {
				data := make([]byte, 64)
				data[0] = byte(rng.Intn(256))
				plain.Write(id, data)
				slotted.Write(id, data)
			} else {
				want := plain.Read(id)
				got, dec, _ := slotted.ReadDecoded(id)
				if got[0] != want[0] {
					t.Fatalf("capacity %d step %d: page %d bytes differ (%d vs %d)", capacity, step, id, got[0], want[0])
				}
				if dec == nil {
					slotted.SetDecoded(id, got[0])
				} else if dec != got[0] {
					t.Fatalf("capacity %d step %d: page %d served stale decoded value %v for byte %d", capacity, step, id, dec, got[0])
				}
			}
			ws, gs := plain.Stats(), slotted.Stats()
			gs.DecodeHits, gs.DecodeMisses = 0, 0
			if ws != gs {
				t.Fatalf("capacity %d step %d: counters %+v via ReadDecoded, %+v via Read", capacity, step, gs, ws)
			}
			for _, p := range ids {
				if plain.Contains(p) != slotted.Contains(p) {
					t.Fatalf("capacity %d step %d: page %d resident=%v via ReadDecoded, %v via Read",
						capacity, step, p, slotted.Contains(p), plain.Contains(p))
				}
			}
		}
		if hits := slotted.Stats().DecodeHits; (hits > 0) != (capacity > 0) {
			t.Fatalf("capacity %d: %d decode hits", capacity, hits)
		}
	}
}

// TestLRUFreeListRecycles pins the allocation-free page churn: with the
// intrusive free list, steady-state install/evict cycles reuse entries.
func TestLRUFreeListRecycles(t *testing.T) {
	b, ids := newTestBuf(t, 2, 3)
	for i := 0; i < 3; i++ { // warm the free list past its high-water mark
		for _, id := range ids {
			b.Read(id)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			b.Read(id)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state page churn allocates %.2f objects per cycle, want 0", allocs)
	}
}
