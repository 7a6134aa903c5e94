// Recycling of the simulator's per-packet objects: delivery events and
// the fan-out's shared defensive copies. Both return to free lists on
// the Network once a delivery has run, so a steady packet flow touches
// the allocator not at all. Timer events are never recycled (a cancel
// may write to its event after the timer fired), and the lists are
// capped so an in-flight burst cannot pin unbounded memory after it
// drains.

package netsim

import (
	"math/bits"
	"time"
)

// The caps cover the bursts a synchronized timer round produces — every
// member of a 1000-endpoint fabric gossiping NAK status at the same
// virtual instant puts ~9000 packets in flight at once — while
// bounding what a drained burst leaves parked.
const (
	// maxFreeEvents caps the delivery-event free list.
	maxFreeEvents = 1 << 14
	// maxFreeBytes caps the bytes parked on the buffer free lists.
	maxFreeBytes = 4 << 20
	// Buffer classes: 32-byte steps up to smallBufMax, so a burst of
	// equal-sized control packets parks little slack, then powers of
	// two up to 64 KiB; larger packets are not pooled.
	bufStep       = 32
	smallBufMax   = 2048
	smallClasses  = smallBufMax / bufStep
	numBufClasses = smallClasses + 5 // 4, 8, 16, 32, 64 KiB
)

// sharedBuf is the reference-counted defensive copy one Send shares
// across its fan-out.
type sharedBuf struct {
	b     []byte
	refs  int
	class int // free-list index; -1 when not pooled
}

// bufClass returns the free-list index for a packet of size bytes and
// the capacity of that class's buffers, or -1 when such packets are not
// pooled.
func bufClass(size int) (class, capacity int) {
	if size <= smallBufMax {
		class = (size + bufStep - 1) / bufStep
		if class > 0 {
			class--
		}
		return class, (class + 1) * bufStep
	}
	shift := bits.Len(uint(size - 1))
	class = smallClasses + shift - 12
	if class >= numBufClasses {
		return -1, 0
	}
	return class, 1 << shift
}

// getBufLocked returns a shared copy of wire holding one reference.
// Caller holds n.mu.
func (n *Network) getBufLocked(wire []byte) *sharedBuf {
	class, capacity := bufClass(len(wire))
	var sb *sharedBuf
	if class >= 0 {
		if free := n.freeBufs[class]; len(free) > 0 {
			sb = free[len(free)-1]
			free[len(free)-1] = nil
			n.freeBufs[class] = free[:len(free)-1]
			n.freeBytes -= cap(sb.b)
		} else {
			sb = &sharedBuf{b: make([]byte, 0, capacity), class: class}
		}
	} else {
		sb = &sharedBuf{class: -1}
	}
	sb.b = append(sb.b[:0], wire...)
	sb.refs = 1
	return sb
}

// releaseBufLocked drops one reference to sb (nil: a private clone,
// nothing to do). The last release parks the buffer on its free list
// unless the list is full. Caller holds n.mu.
func (n *Network) releaseBufLocked(sb *sharedBuf) {
	if sb == nil {
		return
	}
	sb.refs--
	if sb.refs > 0 || sb.class < 0 {
		return
	}
	// Over budget, other classes give way: packet sizes drift (a NAK
	// status grows with the view's cast sources), and buffers of a size
	// no longer sent must not pin the budget.
	for n.freeBytes+cap(sb.b) > maxFreeBytes {
		if !n.evictLocked(sb.class) {
			return
		}
	}
	n.freeBytes += cap(sb.b)
	n.freeBufs[sb.class] = append(n.freeBufs[sb.class], sb)
}

// evictLocked drops one parked buffer of a class other than keep,
// reporting whether there was one. Caller holds n.mu.
func (n *Network) evictLocked(keep int) bool {
	for c := range n.freeBufs {
		free := n.freeBufs[c]
		if c == keep || len(free) == 0 {
			continue
		}
		n.freeBytes -= cap(free[len(free)-1].b)
		free[len(free)-1] = nil
		n.freeBufs[c] = free[:len(free)-1]
		return true
	}
	return false
}

// deliveryLocked schedules a delivery event at t, recycled when one is
// free. Caller holds n.mu.
func (n *Network) deliveryLocked(t time.Duration) *event {
	var ev *event
	if k := len(n.freeEvents); k > 0 {
		ev = n.freeEvents[k-1]
		n.freeEvents[k-1] = nil
		n.freeEvents = n.freeEvents[:k-1]
	} else {
		ev = new(event)
	}
	ev.at = t
	return n.pushLocked(ev)
}

// freeEventLocked zeroes a delivery event that has run and parks it.
// Caller holds n.mu.
func (n *Network) freeEventLocked(ev *event) {
	*ev = event{}
	if len(n.freeEvents) < maxFreeEvents {
		n.freeEvents = append(n.freeEvents, ev)
	}
}
