package core

import "sync"

// executor is the event-queue execution model the paper reports moving
// to (§3 end, §10 item 2): rather than locking layers against
// concurrent threads, every invocation of a stack is placed on a queue
// and executed to completion by a single logical scheduling thread per
// endpoint. Besides eliminating intra-stack locking, this makes
// downcalls issued from within upcall handlers non-recursive: they are
// enqueued and run next, so application handlers may freely Cast.
type executor struct {
	mu      sync.Mutex
	queue   []task
	head    int // next entry to run; queue[:head] is already done
	running bool
}

// task is one queue entry. Entries are typed rather than bare closures
// so the per-packet path enqueues plain data: a packet entry names its
// group and inbound object, and runs through Endpoint.upPacket without
// a closure being allocated per arrival. Every other entry (Do) is a
// closure in fn.
type task struct {
	fn func()   // closure entry; nil for a packet
	g  *Group   // packet entry: the group whose stack receives it
	in *inbound // packet entry: the parsed arrival
}

// run executes one entry.
func (t task) run() {
	if t.fn != nil {
		t.fn()
		return
	}
	t.g.ep.upPacket(t.g, t.in)
}

// Do runs fn on the endpoint's event queue; see push.
func (x *executor) Do(fn func()) { x.push(task{fn: fn}) }

// push runs t on the endpoint's event queue. If no drain is in
// progress, the calling goroutine becomes the drainer and t (plus any
// work t enqueues) executes synchronously before push returns; if a
// drain is already active — including the case where t is enqueued
// from inside a running event — t is queued for that drainer and push
// returns immediately.
func (x *executor) push(t task) {
	x.mu.Lock()
	x.queue = append(x.queue, t)
	if x.running {
		x.mu.Unlock()
		return
	}
	x.running = true
	// Drain by head index rather than re-slicing the front: queue[1:]
	// would strand the backing array's capacity behind the head, making
	// nearly every enqueue reallocate. With an index the array is
	// reused across drains — the queue's steady-state allocation rate
	// is zero, which matters at cluster scale where every delivered
	// packet passes through here.
	for x.head < len(x.queue) {
		next := x.queue[x.head]
		x.queue[x.head] = task{} // release the entry for GC
		x.head++
		x.mu.Unlock()
		next.run()
		x.mu.Lock()
	}
	x.queue = x.queue[:0]
	x.head = 0
	x.running = false
	x.mu.Unlock()
}
