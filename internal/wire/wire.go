// Package wire provides header encodings shared by protocol layers:
// endpoint identifiers, identifier lists, views, and count vectors.
// Each Push function has a matching Pop; layers compose them LIFO on
// the message header stack.
package wire

import (
	"horus/internal/core"
	"horus/internal/message"
)

// PushEndpointID pushes id onto m's header stack.
func PushEndpointID(m *message.Message, id core.EndpointID) {
	m.PushString(id.Site)
	m.PushUint64(id.Birth)
}

// PopEndpointID pops an identifier pushed by PushEndpointID.
func PopEndpointID(m *message.Message) core.EndpointID { return PopEndpointIDIn(m, nil) }

// PopEndpointIDIn pops an identifier like PopEndpointID, but returns
// the matching element of known when there is one, sharing its Site
// string instead of allocating a copy. Only an identifier outside known
// costs an allocation. Receive paths pass the current view, which holds
// nearly every sender they hear from. It panics exactly when
// PopEndpointID would.
func PopEndpointIDIn(m *message.Message, known []core.EndpointID) core.EndpointID {
	birth, site := popIDParts(m)
	for _, k := range known {
		if k.Birth == birth && k.Site == string(site) {
			return k
		}
	}
	return core.EndpointID{Site: string(site), Birth: birth}
}

// popIDParts pops an identifier pushed by PushEndpointID without
// materializing it: site aliases m's header buffer.
func popIDParts(m *message.Message) (birth uint64, site []byte) {
	birth = m.PopUint64()
	return birth, m.Pop(int(m.PopUint32()))
}

// PushIDList pushes a list of endpoint identifiers.
func PushIDList(m *message.Message, ids []core.EndpointID) {
	for i := len(ids) - 1; i >= 0; i-- {
		PushEndpointID(m, ids[i])
	}
	m.PushUint32(uint32(len(ids)))
}

// PopIDList pops a list pushed by PushIDList.
func PopIDList(m *message.Message) []core.EndpointID {
	n := int(m.PopUint32())
	ids := make([]core.EndpointID, n)
	for i := 0; i < n; i++ {
		ids[i] = PopEndpointID(m)
	}
	return ids
}

// AppendIDListIn pops a list pushed by PushIDList, appending its
// identifiers to dst through PopEndpointIDIn against known. A caller
// that passes its previous result's dst[:0] decodes a steady stream of
// lists from known members without allocating; the list's length
// prefix never sizes an allocation.
func AppendIDListIn(dst []core.EndpointID, m *message.Message, known []core.EndpointID) []core.EndpointID {
	n := int(m.PopUint32())
	for i := 0; i < n; i++ {
		dst = append(dst, PopEndpointIDIn(m, known))
	}
	return dst
}

// PushViewID pushes a view identifier.
func PushViewID(m *message.Message, id core.ViewID) {
	PushEndpointID(m, id.Coord)
	m.PushUint64(id.Seq)
}

// PopViewID pops a view identifier pushed by PushViewID.
func PopViewID(m *message.Message) core.ViewID {
	seq := m.PopUint64()
	coord := PopEndpointID(m)
	return core.ViewID{Seq: seq, Coord: coord}
}

// PushView pushes a complete view (identifier, group, members).
func PushView(m *message.Message, v *core.View) {
	PushIDList(m, v.Members)
	m.PushString(string(v.Group))
	PushViewID(m, v.ID)
}

// PopView pops a view pushed by PushView.
func PopView(m *message.Message) *core.View {
	id := PopViewID(m)
	group := core.GroupAddr(m.PopString())
	members := PopIDList(m)
	return &core.View{ID: id, Group: group, Members: members}
}

// PushCounts pushes a vector of counters.
func PushCounts(m *message.Message, counts []uint64) {
	for i := len(counts) - 1; i >= 0; i-- {
		m.PushUint64(counts[i])
	}
	m.PushUint32(uint32(len(counts)))
}

// PopCounts pops a vector pushed by PushCounts.
func PopCounts(m *message.Message) []uint64 {
	n := int(m.PopUint32())
	counts := make([]uint64, n)
	for i := 0; i < n; i++ {
		counts[i] = m.PopUint64()
	}
	return counts
}

// PopCountFor pops an identifier list pushed by PushIDList followed by
// a counter vector pushed by PushCounts — a per-member table — and
// returns the count paired with id, materializing neither list. found
// is false when id is not listed (the first listing wins when id
// appears twice); ok is false when the two lengths differ, in which
// case the table is malformed and count and found are meaningless. The
// result is exactly PopIDList, PopCounts and a linear search, and it
// panics exactly when they would; unlike them it never sizes an
// allocation from an untrusted length prefix.
func PopCountFor(m *message.Message, id core.EndpointID) (count uint64, found, ok bool) {
	n := int(m.PopUint32())
	at := -1
	for i := 0; i < n; i++ {
		birth, site := popIDParts(m)
		if at < 0 && birth == id.Birth && string(site) == id.Site {
			at = i
		}
	}
	k := int(m.PopUint32())
	for i := 0; i < k; i++ {
		c := m.PopUint64()
		if i == at {
			count = c
		}
	}
	if k != n {
		return 0, false, false
	}
	return count, at >= 0, true
}

// AppendCounts pops a vector pushed by PushCounts, appending its
// counters to dst; the reuse discipline of AppendIDListIn applies.
func AppendCounts(dst []uint64, m *message.Message) []uint64 {
	n := int(m.PopUint32())
	for i := 0; i < n; i++ {
		dst = append(dst, m.PopUint64())
	}
	return dst
}
