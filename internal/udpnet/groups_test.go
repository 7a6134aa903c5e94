package udpnet_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/udpnet"
)

// countLayer is a one-layer stack that counts arrivals.
type countLayer struct {
	core.Base
	n atomic.Int64
}

func (c *countLayer) Name() string { return "COUNT" }
func (c *countLayer) Up(ev *core.Event) {
	if ev.Type == core.UPacket {
		c.n.Add(1)
	}
}

// TestDeliverRacesJoinLeave runs Join and Leave on the test goroutine
// while the transport's reader goroutine looks up the very groups
// being joined and left: Deliver reads the group map without the
// endpoint's lock, so Join and close must install a fresh map rather
// than mutate the one a reader may hold. Run it under -race. The
// churn-group datagrams carry a wire image too short to parse, so the
// reader looks the group up and drops the packet without queueing it:
// Join builds its stack on the event queue and must find the queue
// idle, which a reader draining deliveries would not leave it.
func TestDeliverRacesJoinLeave(t *testing.T) {
	idA, idB := core.EndpointID{Site: "a", Birth: 1}, core.EndpointID{Site: "b", Birth: 2}
	trA, err := udpnet.Listen("127.0.0.1:0", idA)
	if err != nil {
		t.Fatal(err)
	}
	defer trA.Close()
	trB, err := udpnet.Listen("127.0.0.1:0", idB)
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	trA.AddPeer(idB, trB.Addr())
	ep := trB.NewEndpoint()
	steady := &countLayer{}
	if _, err := ep.Join("steady", core.StackSpec{func() core.Layer { return steady }}, nil); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			trA.Send(idA, core.GroupAddr(fmt.Sprintf("churn-%d", i%4)), []core.EndpointID{idB}, []byte{0, 0})
			if i%8 == 0 {
				time.Sleep(50 * time.Microsecond) // let the reader keep up
			}
		}
	}()
	for i := 0; i < 400; i++ {
		g, err := ep.Join(core.GroupAddr(fmt.Sprintf("churn-%d", i%4)), core.StackSpec{func() core.Layer { return &countLayer{} }}, nil)
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		g.Leave()
	}
	close(stop)
	wg.Wait()

	// The reader survived the churn: a steady stream still arrives.
	deadline := time.Now().Add(10 * time.Second)
	for steady.n.Load() < 10 {
		if time.Now().After(deadline) {
			t.Fatalf("steady group received %d of 10 packets after the churn", steady.n.Load())
		}
		trA.Send(idA, "steady", []core.EndpointID{idB}, []byte{0, 0, 0, 0, 'x'})
		time.Sleep(time.Millisecond)
	}
	if g := ep.Group("churn-0"); g != nil {
		t.Fatal("a group left during the churn is still registered")
	}
}
