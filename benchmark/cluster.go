package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/poexec/poe/internal/client"
	"github.com/poexec/poe/internal/consensus/poe"
	"github.com/poexec/poe/internal/consensus/protocol"
	"github.com/poexec/poe/internal/crypto"
	"github.com/poexec/poe/internal/network"
	"github.com/poexec/poe/internal/storage"
	"github.com/poexec/poe/internal/types"
	"github.com/poexec/poe/internal/workload"
)

// Cluster shape: what poeserver runs by default, n = 4 and f = 1 with MAC
// authenticators and batches of up to 100 requests; every other protocol
// setting is the protocol default.
const (
	clusterN  = 4
	clusterF  = 1
	batchSize = 100
	ringSeed  = "poe-benchmark"
)

// cluster is one in-process PoE deployment over loopback TCP, built with the
// constructors poeserver uses, plus the benchmark's client identities.
type cluster struct {
	ring     *crypto.KeyRing
	table    map[string][]byte
	replicas []*poe.Replica
	nets     []network.Transport
	stores   []*storage.Store
	cancels  []context.CancelFunc
	done     []chan struct{}
	crashed  []bool

	clients      []*client.Client
	clientNets   []network.Transport
	clientCancel context.CancelFunc

	// audit collects speculative read answers for the digest-prefix check.
	audit *readAudit
}

// freeAddrs reserves n loopback ports by binding and releasing them. The
// replicas need every peer address before any of them listens.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, l := range lns {
		l.Close()
	}
	return addrs, nil
}

// startCluster builds and starts the replicas and clients and waits until
// every client has one accepted reply. It returns the time from its start to
// the first accepted reply: listeners, key ring, storage and replica
// construction, and table preload all fall inside it. dataDir is used only
// for durable workloads; wrap, if non-nil, wraps every node's transport.
func startCluster(spec workloadSpec, seed int64, dataDir string, wrap func(network.Transport) network.Transport) (*cluster, time.Duration, error) {
	start := time.Now()
	if wrap == nil {
		wrap = func(t network.Transport) network.Transport { return t }
	}
	c := &cluster{
		ring:  crypto.NewKeyRing(clusterN, []byte(ringSeed)),
		table: workload.InitialTable(spec.config(seed)),
		audit: newReadAudit(),
	}
	addrs, err := freeAddrs(clusterN)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < clusterN; i++ {
		if err := c.addReplica(i, addrs, spec.durable, dataDir, wrap); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.clientCancel = cancel
	for i := 0; i < clientCount; i++ {
		if err := c.addClient(ctx, i, addrs, wrap); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	for i := range c.replicas {
		c.startReplica(i)
	}
	setup, err := c.probe(start)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, setup, nil
}

func (c *cluster) addReplica(i int, addrs []string, durable bool, dataDir string, wrap func(network.Transport) network.Transport) error {
	id := types.ReplicaID(i)
	peers := make(map[types.NodeID]string, clusterN)
	for r, a := range addrs {
		peers[types.ReplicaNode(types.ReplicaID(r))] = a
	}
	tcp, err := network.NewTCPNet(types.ReplicaNode(id), peers)
	if err != nil {
		return fmt.Errorf("replica %d transport: %w", i, err)
	}
	tr := wrap(tcp)
	c.nets = append(c.nets, tr)
	ropts := protocol.RuntimeOptions{InitialTable: c.table}
	if durable {
		dir := filepath.Join(dataDir, fmt.Sprintf("r%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		st, err := storage.Open(dir, storage.Options{Sync: true})
		if err != nil {
			return fmt.Errorf("replica %d storage: %w", i, err)
		}
		c.stores = append(c.stores, st)
		ropts.Storage = st
	}
	cfg := protocol.Config{ID: id, N: clusterN, F: clusterF, Scheme: crypto.SchemeMAC, BatchSize: batchSize}
	r, err := poe.New(cfg, c.ring, tr, poe.Options{RuntimeOptions: ropts})
	if err != nil {
		return fmt.Errorf("replica %d: %w", i, err)
	}
	c.replicas = append(c.replicas, r)
	c.cancels = append(c.cancels, func() {})
	c.done = append(c.done, nil)
	c.crashed = append(c.crashed, false)
	return nil
}

func (c *cluster) startReplica(i int) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	c.cancels[i], c.done[i] = cancel, done
	r := c.replicas[i]
	r.Runtime().Metrics.Start()
	go func() {
		defer close(done)
		r.Run(ctx)
	}()
}

func (c *cluster) addClient(ctx context.Context, i int, addrs []string, wrap func(network.Transport) network.Transport) error {
	id := types.ClientIDBase + types.ClientID(i)
	peers := make(map[types.NodeID]string, clusterN+1)
	for r, a := range addrs {
		peers[types.ReplicaNode(types.ReplicaID(r))] = a
	}
	peers[types.ClientNode(id)] = "127.0.0.1:0"
	tcp, err := network.NewTCPNet(types.ClientNode(id), peers)
	if err != nil {
		return fmt.Errorf("client %d transport: %w", i, err)
	}
	tr := wrap(tcp)
	c.clientNets = append(c.clientNets, tr)
	cl, err := client.New(client.Config{ID: id, N: clusterN, F: clusterF, Scheme: crypto.SchemeMAC}, c.ring, tr)
	if err != nil {
		return err
	}
	cl.OnRepair = c.audit.onRepair
	cl.Start(ctx)
	c.clients = append(c.clients, cl)
	return nil
}

// probe submits one write per client and returns the time from start to the
// first accepted reply, after every client has had one. A client's first
// request also teaches the backups its reply route.
func (c *cluster) probe(start time.Time) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	first := make(chan time.Time, len(c.clients))
	errs := make(chan error, len(c.clients))
	for i, cl := range c.clients {
		txn := types.Transaction{
			Client: types.ClientIDBase + types.ClientID(i),
			Seq:    cl.NextSeq(),
			Ops:    []types.Op{{Kind: types.OpWrite, Key: workload.Key(i), Value: []byte("probe")}},
		}
		go func(cl *client.Client) {
			_, err := cl.SubmitTxn(ctx, txn)
			first <- time.Now()
			errs <- err
		}(cl)
	}
	setup := (<-first).Sub(start)
	var failed error
	for range c.clients {
		if err := <-errs; err != nil {
			failed = errors.Join(failed, err)
		}
	}
	if failed != nil {
		return 0, fmt.Errorf("set-up probe: %w", failed)
	}
	return setup, nil
}

// reorderProbe submits two writes from client 0 in the order the benchmark's
// clients never use: sequence number s+1, and once it has completed, s.
// Batcher.Add drops a request whose sequence number is at or below the
// highest one the primary has queued for its client, and every retry with
// it, so on the seed the second write never completes. It returns how many of
// the two writes did not complete: 1 while that defect stands, 0 once out of
// order submits are served.
func (c *cluster) reorderProbe(wait time.Duration) (int, error) {
	cl := c.clients[0]
	write := func(seq uint64, value string) types.Transaction {
		return types.Transaction{
			Client: types.ClientIDBase,
			Seq:    seq,
			Ops:    []types.Op{{Kind: types.OpWrite, Key: workload.Key(0), Value: []byte(value)}},
		}
	}
	early, late := cl.NextSeq(), cl.NextSeq()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if _, err := cl.SubmitTxn(ctx, write(late, "reorder-probe-late")); err != nil {
		return 0, fmt.Errorf("reorder probe: %w", err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), wait)
	defer cancel()
	if _, err := cl.SubmitTxn(ctx, write(early, "reorder-probe-early")); err != nil {
		return 1, nil
	}
	return 0, nil
}

// crash crash-stops replica i: its Run context is cancelled and its
// transport closed.
func (c *cluster) crash(i int) {
	c.cancels[i]()
	<-c.done[i]
	c.nets[i].Close()
	c.crashed[i] = true
}

// live returns the replicas that were not crashed.
func (c *cluster) live() []*poe.Replica {
	var out []*poe.Replica
	for i, r := range c.replicas {
		if !c.crashed[i] {
			out = append(out, r)
		}
	}
	return out
}

// stop shuts every client and replica down and waits for their loops to
// return. The executed state stays readable for the correctness gate.
func (c *cluster) stop() {
	if c.clientCancel != nil {
		c.clientCancel()
	}
	for _, t := range c.clientNets {
		t.Close()
	}
	var wg sync.WaitGroup
	for i := range c.replicas {
		if c.crashed[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.cancels[i]()
			if c.done[i] != nil {
				<-c.done[i]
			}
		}(i)
	}
	wg.Wait()
	for _, t := range c.nets {
		t.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
}
