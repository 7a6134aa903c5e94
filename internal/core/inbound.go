// Recycled inbound packets: the receive path's per-packet storage.
//
//horus:pool — the pool is behaviour-transparent: what a stack observes
// of a packet never depends on whether its event, message and slab were
// recycled or freshly allocated, so simulation determinism is preserved.

package core

import (
	"sync"

	"horus/internal/message"
)

// inbound is one arrival's event and message in a single object, plus
// the slab holding the message's bytes (message.UnmarshalInto). It is
// drawn from inboundPool by Endpoint.Deliver and handed back by
// upPacket once the stack's Up returns — unless the packet was kept:
// a layer that stores the event calls Context.Keep, and a packet that
// reaches the application handler is kept automatically, so handlers
// may retain ev and ev.Msg as they always could. A kept packet is left
// to the garbage collector; nothing recycles it.
type inbound struct {
	ev   Event
	msg  message.Message
	slab []byte
	kept bool
}

// inboundPool recycles inbound objects together with their slabs.
var inboundPool = sync.Pool{New: func() interface{} { return new(inbound) }}

// poisonByte fills the slab of a recycled packet. A layer that read a
// packet it did not keep sees this pattern, not plausible data: body
// integrity and header checks fail at once.
const poisonByte = 0xA5

// recycle poisons an unkept in and returns it to the pool. The event
// and message are zeroed and the slab overwritten in every build, so a
// layer reading a packet it did not keep fails loudly instead of
// seeing plausible bytes.
func (in *inbound) recycle() {
	in.ev = Event{}
	in.msg = message.Message{}
	if len(in.slab) > 0 {
		in.slab[0] = poisonByte
		for n := 1; n < len(in.slab); n *= 2 {
			copy(in.slab[n:], in.slab[:n])
		}
	}
	inboundPool.Put(in)
}
