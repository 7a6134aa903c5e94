package wire_test

import (
	"encoding/binary"
	"testing"
	"unsafe"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/wire"
)

var (
	idA = core.EndpointID{Site: "alpha", Birth: 1}
	idB = core.EndpointID{Site: "beta", Birth: 2}
	idC = core.EndpointID{Site: "gamma", Birth: 3}
)

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func TestPopEndpointIDIn(t *testing.T) {
	known := []core.EndpointID{idA, idB, idB} // idB listed twice
	for _, tc := range []struct {
		name     string
		id       core.EndpointID
		borrowed int // index into known whose Site the result shares; -1: fresh
	}{
		{"match", idA, 0},
		{"duplicate in known: first wins", idB, 1},
		{"no match", idC, -1},
		{"birth matches, site differs", core.EndpointID{Site: "alphx", Birth: 1}, -1},
		{"site matches, birth differs", core.EndpointID{Site: "alpha", Birth: 9}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := message.New(nil)
			wire.PushEndpointID(m, tc.id)
			m.PushUint8(0xEE) // a header above must not be disturbed
			m.PopUint8()
			got := wire.PopEndpointIDIn(m, known)
			if got != tc.id {
				t.Fatalf("got %v, want %v", got, tc.id)
			}
			if m.HeaderLen() != 0 {
				t.Fatalf("%d header bytes left over", m.HeaderLen())
			}
			shared := -1
			for i, k := range known {
				if unsafe.StringData(got.Site) == unsafe.StringData(k.Site) {
					shared = i
					break
				}
			}
			if shared != tc.borrowed {
				t.Fatalf("result shares the Site of known[%d], want %d", shared, tc.borrowed)
			}
		})
	}
}

func TestPopEndpointIDInMatchDoesNotAllocate(t *testing.T) {
	m := message.New(nil)
	wire.PushEndpointID(m, idB)
	raw := append([]byte(nil), m.Header()...)
	m.Pop(len(raw))
	known := []core.EndpointID{idA, idB}
	n := testing.AllocsPerRun(100, func() {
		m.Push(raw) // back into the headroom the pop freed: no allocation
		_ = wire.PopEndpointIDIn(m, known)
	})
	if n != 0 {
		t.Fatalf("PopEndpointIDIn of a known member costs %.0f allocs, want 0", n)
	}
}

func TestPopEndpointIDInTruncated(t *testing.T) {
	m := message.New(nil)
	wire.PushEndpointID(m, idA)
	full := m.Header()
	for cut := 0; cut < len(full); cut++ {
		hdr := full[:cut]
		if !panics(func() { wire.PopEndpointIDIn(message.FromParts(hdr, nil), []core.EndpointID{idA}) }) {
			t.Fatalf("%d of %d bytes: no panic", cut, len(full))
		}
		if !panics(func() { wire.PopEndpointID(message.FromParts(hdr, nil)) }) {
			t.Fatalf("%d of %d bytes: reference did not panic either", cut, len(full))
		}
	}
}

// table renders a per-member table the way NAK status does: the count
// vector under the identifier list.
func table(ids []core.EndpointID, counts []uint64) []byte {
	m := message.New(nil)
	m.PushUint64(0xFEED) // trailer the caller pops next
	wire.PushCounts(m, counts)
	wire.PushIDList(m, ids)
	return append([]byte(nil), m.Header()...)
}

func TestPopCountFor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ids    []core.EndpointID
		counts []uint64
		want   uint64
		found  bool
		ok     bool
	}{
		{"match", []core.EndpointID{idA, idB, idC}, []uint64{10, 20, 30}, 20, true, true},
		{"no match", []core.EndpointID{idA, idC}, []uint64{10, 30}, 0, false, true},
		{"empty", nil, nil, 0, false, true},
		{"duplicate IDs: first pair wins", []core.EndpointID{idB, idA, idB}, []uint64{7, 8, 9}, 7, true, true},
		{"more counts than IDs", []core.EndpointID{idB}, []uint64{1, 2}, 0, false, false},
		{"more IDs than counts", []core.EndpointID{idA, idB}, []uint64{1}, 0, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := message.FromParts(table(tc.ids, tc.counts), nil)
			got, found, ok := wire.PopCountFor(m, idB)
			if got != tc.want || found != tc.found || ok != tc.ok {
				t.Fatalf("got (%d, %v, %v), want (%d, %v, %v)", got, found, ok, tc.want, tc.found, tc.ok)
			}
			if trailer := m.PopUint64(); trailer != 0xFEED {
				t.Fatalf("table not consumed exactly: next field %#x", trailer)
			}
		})
	}
}

func TestPopCountForTruncated(t *testing.T) {
	full := table([]core.EndpointID{idA, idB}, []uint64{1, 2})
	full = full[:len(full)-8] // drop the trailer
	for cut := 0; cut < len(full); cut++ {
		hdr := full[:cut]
		if !panics(func() { wire.PopCountFor(message.FromParts(hdr, nil), idB) }) {
			t.Fatalf("%d of %d bytes: no panic", cut, len(full))
		}
	}
}

func TestAppendIDListInAndCounts(t *testing.T) {
	ids := []core.EndpointID{idA, idC, idB}
	counts := []uint64{4, 5, 6}
	m := message.FromParts(table(ids, counts), nil)
	gotIDs := wire.AppendIDListIn(make([]core.EndpointID, 0, 8), m, []core.EndpointID{idA, idB})
	gotCounts := wire.AppendCounts(nil, m)
	if len(gotIDs) != 3 || len(gotCounts) != 3 {
		t.Fatalf("decoded %d ids, %d counts", len(gotIDs), len(gotCounts))
	}
	for i := range ids {
		if gotIDs[i] != ids[i] || gotCounts[i] != counts[i] {
			t.Fatalf("entry %d: %v/%d, want %v/%d", i, gotIDs[i], gotCounts[i], ids[i], counts[i])
		}
	}
}

// popCountForReference is the specification PopCountFor must match:
// PopIDList, PopCounts, then a linear search. A length prefix that
// promises more entries than the header could possibly hold (an ID
// takes at least 12 bytes, a count 8) panics up front: the reference
// would panic too, but only after sizing a slice from the prefix.
func popCountForReference(m *message.Message, id core.EndpointID) (uint64, bool, bool) {
	checkPrefix := func(minEntry int) {
		h := m.Header()
		if len(h) >= 4 && int(binary.BigEndian.Uint32(h))*minEntry > len(h)-4 {
			panic("list longer than the header")
		}
	}
	checkPrefix(12)
	srcs := wire.PopIDList(m)
	checkPrefix(8)
	counts := wire.PopCounts(m)
	if len(srcs) != len(counts) {
		return 0, false, false
	}
	for i, s := range srcs {
		if s == id {
			return counts[i], true, true
		}
	}
	return 0, false, true
}

func FuzzPopCountFor(f *testing.F) {
	f.Add(table([]core.EndpointID{idA, idB}, []uint64{1, 2}), "beta", uint64(2))
	f.Add(table([]core.EndpointID{idB, idB}, []uint64{3, 4}), "beta", uint64(2))
	f.Add(table([]core.EndpointID{idA}, []uint64{1, 2}), "alpha", uint64(1))
	f.Add(table(nil, nil), "", uint64(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, "x", uint64(0))
	f.Add([]byte{0, 0, 0, 1, 0, 0}, "x", uint64(0))
	f.Fuzz(func(t *testing.T, hdr []byte, site string, birth uint64) {
		id := core.EndpointID{Site: site, Birth: birth}
		got, want := message.FromParts(hdr, nil), message.FromParts(hdr, nil)
		var c1, c2 uint64
		var f1, f2, ok1, ok2 bool
		p1 := panics(func() { c1, f1, ok1 = wire.PopCountFor(got, id) })
		p2 := panics(func() { c2, f2, ok2 = popCountForReference(want, id) })
		if p1 != p2 {
			t.Fatalf("PopCountFor panicked=%v, reference panicked=%v", p1, p2)
		}
		if p1 {
			return
		}
		if c1 != c2 || f1 != f2 || ok1 != ok2 {
			t.Fatalf("PopCountFor = (%d, %v, %v), reference = (%d, %v, %v)", c1, f1, ok1, c2, f2, ok2)
		}
		if got.HeaderLen() != want.HeaderLen() {
			t.Fatalf("consumed differently: %d vs %d header bytes left", got.HeaderLen(), want.HeaderLen())
		}
	})
}
