package inmem

import (
	"testing"
	"time"

	"openwf/internal/proto"
	"openwf/internal/testutil"
)

func numbered(n int) delivery {
	return delivery{env: proto.Envelope{ReqID: uint64(n)}}
}

// TestMailboxSteadyStateAllocBound: a mailbox its consumer keeps up with
// reuses one backing array, so push/pop allocates nothing.
func TestMailboxSteadyStateAllocBound(t *testing.T) {
	m := newMailbox()
	testutil.AllocBound(t, 0, func() {
		for i := 0; i < 8; i++ {
			m.push(numbered(i))
		}
		for i := 0; i < 8; i++ {
			if d, _ := m.pop(); d.env.ReqID != uint64(i) {
				t.Fatalf("popped frame %d, want %d", d.env.ReqID, i)
			}
		}
	})
}

// TestMailboxBacklogStaysBounded: a queue that never fully drains slides
// down over its popped slots instead of growing without bound.
func TestMailboxBacklogStaysBounded(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 4; i++ {
		m.push(numbered(i))
	}
	next := 0
	for i := 4; i < 10000; i++ {
		m.push(numbered(i))
		d, _ := m.pop()
		if d.env.ReqID != uint64(next) {
			t.Fatalf("popped %d, want %d", d.env.ReqID, next)
		}
		next++
	}
	if c := cap(m.items); c > 16 {
		t.Fatalf("backing array grew to %d for a backlog of 4", c)
	}
}

// TestMailboxSetDarkReturnsUndelivered: going dark after partial pops
// returns exactly the frames not yet popped, so loss accounting stays
// exact; the popped slots are cleared.
func TestMailboxSetDarkReturnsUndelivered(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 5; i++ {
		m.push(numbered(i))
	}
	for i := 0; i < 2; i++ {
		m.pop()
	}
	for i, d := range m.items[:m.head] {
		if d.env.ReqID != 0 || d.payload != nil {
			t.Fatalf("popped slot %d still holds frame %d", i, d.env.ReqID)
		}
	}
	lost := m.setDark(true)
	if len(lost) != 3 {
		t.Fatalf("setDark returned %d frames, want the 3 undelivered", len(lost))
	}
	for i, d := range lost {
		if d.env.ReqID != uint64(i+2) {
			t.Fatalf("lost[%d] = frame %d, want %d", i, d.env.ReqID, i+2)
		}
	}
	if m.push(numbered(9)) {
		t.Fatal("dark mailbox accepted a push")
	}
	// Restart: the mailbox takes and delivers traffic again, starting
	// from an empty queue.
	if lost := m.setDark(false); lost != nil {
		t.Fatalf("lifting the dark flag returned %d frames", len(lost))
	}
	if !m.push(numbered(7)) {
		t.Fatal("restarted mailbox refused a push")
	}
	if d, ok := m.pop(); !ok || d.env.ReqID != 7 {
		t.Fatalf("pop after restart = %d, %v", d.env.ReqID, ok)
	}
}

// TestMailboxCloseWakesAndRefuses: close wakes a blocked pop, drops the
// queue and refuses later pushes.
func TestMailboxCloseWakesAndRefuses(t *testing.T) {
	m := newMailbox()
	m.push(numbered(1))
	m.pop()
	popped := make(chan bool, 1)
	go func() {
		_, ok := m.pop()
		popped <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	m.close()
	select {
	case ok := <-popped:
		if ok {
			t.Fatal("pop on a closed, empty mailbox reported an item")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake the blocked pop")
	}
	if m.push(numbered(2)) {
		t.Fatal("closed mailbox accepted a push")
	}
	if _, ok := m.pop(); ok {
		t.Fatal("closed mailbox popped an item")
	}
}
