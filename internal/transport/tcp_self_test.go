package transport

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/proto"
)

// TestTCPSelfSendFIFOAndClose pins the TCP self-send path (timer Ticks,
// relocation timeouts) to the in-process transport's semantics: messages
// a node sends to itself arrive FIFO without touching a socket, and once
// the endpoint is closed the send returns an error instead of panicking
// or hanging.
func TestTCPSelfSendFIFOAndClose(t *testing.T) {
	n := NewTCP(map[partition.NodeID]string{"a": "127.0.0.1:0"})
	defer n.Close()
	const count = 500
	got := make(chan string, count)
	ep, err := n.Attach("a", func(from partition.NodeID, msg proto.Message) {
		if from != "a" {
			t.Errorf("self-send arrived from %s", from)
		}
		got <- msg.(proto.Tick).Kind
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		if err := ep.Send("a", proto.Tick{Kind: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		select {
		case kind := <-got:
			if kind != fmt.Sprint(i) {
				t.Fatalf("self-send %d arrived as %s: not FIFO", i, kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("self-send %d never arrived", i)
		}
	}
	if codec := ep.(*tcpEndpoint).Codec("a"); codec != "" {
		t.Fatalf("self-sends opened a %s connection to the own node", codec)
	}

	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- ep.Send("a", proto.Tick{Kind: "late"}) }()
	select {
	case err := <-sent:
		if err == nil {
			t.Fatal("self-send after Close reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self-send after Close hung")
	}
}
