package harness

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/poexec/poe/internal/consensus/hotstuff"
	"github.com/poexec/poe/internal/consensus/pbft"
	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/consensus/sbft"
	"github.com/poexec/poe/internal/consensus/zyzzyva"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/types"
)

// lingerTick is the housekeeping tick of the linger tests: far longer than
// any request may take, so a request that completes in time was released by
// the batcher's own linger timer, not by the tick.
const lingerTick = time.Second

// lingerBound is how long one lone request may take end to end.
const lingerBound = 250 * time.Millisecond

// buildSlowTickReplica builds a replica of opts.Protocol whose tick is
// lingerTick. SBFT also checks collector timeouts on the tick and clamps it
// to half the collector timeout, so that timeout is raised to match.
func buildSlowTickReplica(opts Options, cfg protocol.Config, ring *crypto.KeyRing, tr network.Transport) (replicaHandle, error) {
	switch opts.Protocol {
	case PoE:
		return poe.New(cfg, ring, tr, poe.Options{Tick: lingerTick})
	case PBFT:
		return pbft.New(cfg, ring, tr, pbft.Options{Tick: lingerTick})
	case Zyzzyva:
		return zyzzyva.New(cfg, ring, tr, zyzzyva.Options{Tick: lingerTick})
	case SBFT:
		return sbft.New(cfg, ring, tr, sbft.Options{Tick: lingerTick, CollectorTimeout: 2 * lingerTick})
	case HotStuff:
		return hotstuff.New(cfg, ring, tr, hotstuff.Options{Tick: lingerTick})
	default:
		return nil, fmt.Errorf("unknown protocol %q", opts.Protocol)
	}
}

// startSlowTickCluster runs an in-process cluster of slow-tick replicas
// with the given batch linger (0 = protocol default) and returns them with
// one client per identity.
func startSlowTickCluster(t *testing.T, opts Options, linger time.Duration, clients int) ([]replicaHandle, []submitter) {
	t.Helper()
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	net := network.NewChanNet()
	t.Cleanup(func() {
		cancel()
		net.Close()
	})
	ring := crypto.NewKeyRing(opts.N, []byte("linger-test"))
	replicas := make([]replicaHandle, opts.N)
	for i := range replicas {
		cfg := replicaConfig(opts, i)
		cfg.BatchLinger = linger
		h, err := buildSlowTickReplica(opts, cfg, ring, net.Join(types.ReplicaNode(types.ReplicaID(i))))
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		replicas[i] = h
		go h.Run(ctx)
	}
	subs := make([]submitter, clients)
	for i := range subs {
		s, err := buildClient(opts, i, ring, net)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		s.Start(ctx)
		subs[i] = s
	}
	return replicas, subs
}

// submitWithin submits one single-write transaction and reports an error
// if it does not complete within lingerBound.
func submitWithin(s submitter, client int) error {
	id := types.ClientID(types.ClientIDBase) + types.ClientID(client)
	txn := types.Transaction{
		Client: id, Seq: s.NextSeq(),
		Ops: []types.Op{{Kind: types.OpWrite, Key: fmt.Sprintf("k%d", client), Value: []byte("v")}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*lingerTick)
	defer cancel()
	start := time.Now()
	if _, err := s.SubmitTxn(ctx, txn); err != nil {
		return fmt.Errorf("client %d: %v", client, err)
	}
	if took := time.Since(start); took > lingerBound {
		return fmt.Errorf("client %d: request took %v, want < %v (released by the tick, not the linger timer)", client, took, lingerBound)
	}
	return nil
}

func lingerOpts(p Protocol, window int) Options {
	return Options{
		Protocol: p, N: 4,
		BatchSize: 8, Window: window,
		ViewTimeout:   10 * lingerTick,
		ClientTimeout: 5 * lingerTick,
	}
}

// TestLingerReleasesLoneRequest: a partial batch goes out when its linger
// expires, in every protocol, even though the housekeeping tick is a second
// away.
func TestLingerReleasesLoneRequest(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			_, subs := startSlowTickCluster(t, lingerOpts(p, 0), 0, 1)
			if err := submitWithin(subs[0], 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLingerWindowOneBackToBack: with a window of one, a second partial
// batch queued while the first is in flight goes out as soon as the first
// executes, not on the next tick. The linger is far shorter than a round
// of consensus, so the second batch ripens while the window is still full
// and only the execution path can release it.
func TestLingerWindowOneBackToBack(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			replicas, subs := startSlowTickCluster(t, lingerOpts(p, 1), 100*time.Microsecond, 2)
			first := make(chan error, 1)
			go func() { first <- submitWithin(subs[0], 0) }()
			// Queue the second request right after the first batch is
			// proposed, while it is still in flight.
			deadline := time.Now().Add(lingerBound)
			for proposed(replicas) == 0 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			if err := submitWithin(subs[1], 1); err != nil {
				t.Error(err)
			}
			if err := <-first; err != nil {
				t.Error(err)
			}
		})
	}
}

func proposed(replicas []replicaHandle) int64 {
	var n int64
	for _, h := range replicas {
		n += h.Runtime().Metrics.ProposedBatches.Load()
	}
	return n
}
