package protocol

import (
	"testing"
	"time"

	"github.com/poexec/poe/internal/types"
)

func batcherReq(i int) types.Request {
	return types.Request{Txn: types.Transaction{Client: types.ClientIDBase + types.ClientID(i), Seq: 1}}
}

// A full batch leaving requests behind must not restart their linger: the
// first leftover's deadline is its own arrival plus the linger interval.
func TestBatcherLeftoverKeepsArrival(t *testing.T) {
	const max, linger = 3, 50 * time.Millisecond
	b := NewBatcher(max, linger, false)
	for i := 0; i < max; i++ {
		b.Add(batcherReq(i))
	}
	before := time.Now()
	b.Add(batcherReq(max)) // the first leftover
	after := time.Now()
	b.Add(batcherReq(max + 1))
	time.Sleep(10 * time.Millisecond)
	if batch, ok := b.Take(false); !ok || len(batch.Requests) != max {
		t.Fatalf("take full batch: ok=%v", ok)
	}
	if b.Pending() != 2 {
		t.Fatalf("pending %d after take, want 2", b.Pending())
	}
	// The deadline lies in [before+linger, after+linger].
	if b.Ripe(before.Add(linger - time.Nanosecond)) {
		t.Fatal("leftover ripe before its own deadline")
	}
	if !b.Ripe(after.Add(linger)) {
		t.Fatal("leftover linger restarted at Take: not ripe at arrival+linger")
	}
}

// Due fires once the oldest request has lingered, is re-armed for the
// leftovers of a full batch, and is disarmed when the queue empties.
func TestBatcherLingerTimer(t *testing.T) {
	const linger = 20 * time.Millisecond
	b := NewBatcher(2, linger, false)
	if b.Due() != nil {
		t.Fatal("Due armed before any request")
	}
	start := time.Now()
	b.Add(batcherReq(0))
	select {
	case <-b.Due():
	case <-time.After(time.Second):
		t.Fatal("linger timer never fired")
	}
	if waited := time.Since(start); waited < linger {
		t.Fatalf("timer fired after %v, before the %v linger", waited, linger)
	}
	if !b.Ripe(time.Now()) {
		t.Fatal("not ripe when the timer fired")
	}

	// A full batch with a leftover: the timer is re-armed for the leftover.
	b.Add(batcherReq(1))
	b.Add(batcherReq(2))
	if _, ok := b.Take(false); !ok {
		t.Fatal("take full batch")
	}
	select {
	case <-b.Due():
	case <-time.After(time.Second):
		t.Fatal("timer not re-armed for the leftover")
	}
	if _, ok := b.Take(true); !ok {
		t.Fatal("force-take leftover")
	}

	// Empty queue: the timer is disarmed.
	select {
	case <-b.Due():
		t.Fatal("timer fired with nothing pending")
	case <-time.After(3 * linger):
	}
}

// Re-arming a timer whose wake-up the loop never consumed must not leave
// the stale value behind to wake the loop before the new deadline.
func TestBatcherLingerRearmDrainsStaleFire(t *testing.T) {
	const linger = 30 * time.Millisecond
	b := NewBatcher(10, linger, false)
	b.Add(batcherReq(0))
	time.Sleep(2 * linger) // fires; nobody receives
	if _, ok := b.Take(true); !ok {
		t.Fatal("force-take")
	}
	start := time.Now()
	b.Add(batcherReq(1))
	select {
	case <-b.Due():
		if waited := time.Since(start); waited < linger {
			t.Fatalf("stale wake-up after %v, before the %v linger", waited, linger)
		}
	case <-time.After(time.Second):
		t.Fatal("re-armed timer never fired")
	}
}
