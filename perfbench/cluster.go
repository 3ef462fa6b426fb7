package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datastore"
	"repro/internal/gossip"
	"repro/internal/keyspace"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// The cluster under test. Every workload runs against the same shape.
const (
	numPeers      = 6
	storageFactor = 32   // each range holds sf+1..2·sf items
	numItems      = 213  // ascending load: five splits end at 33/33/33/33/33/48
	keySpacing    = 1000 // key i is i·keySpacing
	payloadBytes  = 100  // every stored payload is exactly this long
	clientID      = "perfbench-client"
	walSync       = 100 * time.Millisecond // batched WAL fsync interval of every peer
	leaseDuration = 5 * time.Second
	gossipPeriod  = 300 * time.Millisecond
)

// peerConfig is pepperd's serve-mode profile (cmd/pepperd tcpPeerConfig)
// with the deployment features CI's cluster smoke runs — range-claim leases
// and gossip — and storage factor 32 so per-item costs show.
func peerConfig(seed int64) core.Config {
	return core.Config{
		Ring: ring.Config{
			SuccListLen: 4,
			StabPeriod:  250 * time.Millisecond,
			PingPeriod:  250 * time.Millisecond,
			CallTimeout: 2 * time.Second,
			AckTimeout:  20 * time.Second,
		},
		Store: datastore.Config{
			StorageFactor:      storageFactor,
			CheckPeriod:        300 * time.Millisecond,
			CallTimeout:        2 * time.Second,
			MaintenanceTimeout: 20 * time.Second,
			LeaseDuration:      leaseDuration,
		},
		Replication: replication.Config{
			Factor:        3,
			RefreshPeriod: 500 * time.Millisecond,
			CallTimeout:   2 * time.Second,
		},
		Router: router.Config{
			RefreshPeriod: 500 * time.Millisecond,
			CallTimeout:   2 * time.Second,
			MaxHops:       64,
		},
		Gossip: gossip.Config{
			Interval:    gossipPeriod,
			Fanout:      2,
			CallTimeout: 2 * time.Second,
			Seed:        seed,
		},
		QueryAttemptTimeout: 10 * time.Second,
		MaxQueryAttempts:    20,
		Seed:                seed,
	}
}

// itemKey is the i-th loaded key (1-based).
func itemKey(i int) keyspace.Key { return keyspace.Key(i * keySpacing) }

// payload is the value of key at version v: a parseable header padded with
// seed-derived filler to exactly payloadBytes.
func payload(filler string, key keyspace.Key, v uint64) string {
	b := make([]byte, 0, payloadBytes)
	b = append(b, 'k')
	b = strconv.AppendUint(b, uint64(key), 10)
	b = append(b, ".v"...)
	b = strconv.AppendUint(b, v, 10)
	b = append(b, '.')
	b = append(b, filler[:payloadBytes-len(b)]...)
	return string(b)
}

// parseVersion returns the version a payload of key carries, or false when
// the payload is not byte for byte one this benchmark could have written
// for key. It allocates nothing: every read is checked by it, inside the
// measured phases.
func parseVersion(filler string, key keyspace.Key, p string) (uint64, bool) {
	if len(p) != payloadBytes || p[0] != 'k' {
		return 0, false
	}
	k, i, ok := leadingUint(p, 1)
	if !ok || keyspace.Key(k) != key || !strings.HasPrefix(p[i:], ".v") {
		return 0, false
	}
	v, i, ok := leadingUint(p, i+2)
	if !ok || i >= len(p) || p[i] != '.' {
		return 0, false
	}
	i++
	return v, p[i:] == filler[:payloadBytes-i]
}

// leadingUint parses the decimal number that starts at p[i], written as
// strconv writes it (no sign, no leading zeros), and returns it with the
// index just past it.
func leadingUint(p string, i int) (uint64, int, bool) {
	j := i
	for j < len(p) && p[j] >= '0' && p[j] <= '9' {
		j++
	}
	if j == i || j-i > 19 || (p[i] == '0' && j-i > 1) {
		return 0, i, false
	}
	n, err := strconv.ParseUint(p[i:j], 10, 64)
	return n, j, err == nil
}

// makeFiller derives the payload padding from the seed.
func makeFiller(seed int64) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, payloadBytes)
	h := sha256.Sum256(binary.LittleEndian.AppendUint64(nil, uint64(seed)))
	for i := range b {
		b[i] = alphabet[int(h[i%len(h)]+byte(i))%len(alphabet)]
	}
	return string(b)
}

// cluster is one booted six-peer cluster and the client that drives it.
type cluster struct {
	dir        string
	nodes      []*core.Standalone
	transports []transport.Transport
	clientTr   transport.Transport
	cli        *client.Client
	insSucc    *metrics.Recorder
	filler     string
}

// close stops every peer and transport and removes the cluster's storage.
func (c *cluster) close() {
	if c.cli != nil {
		c.cli.Close()
	}
	if c.clientTr != nil {
		c.clientTr.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	for _, tr := range c.transports {
		tr.Close()
	}
	os.RemoveAll(c.dir)
}

// freeAddr picks a loopback port below the kernel's ephemeral range
// (32768 and up on Linux) that is free to bind, and releases it for the
// peer. Below that range, the outgoing connections the cluster itself
// opens cannot take the port before the peer binds it.
func freeAddr() (transport.Addr, error) {
	var err error
	for try := 0; try < 100; try++ {
		addr := fmt.Sprintf("127.0.0.1:%d", 20000+rand.IntN(12000))
		var ln net.Listener
		if ln, err = net.Listen("tcp", addr); err == nil {
			ln.Close()
			return transport.Addr(addr), nil
		}
	}
	return "", fmt.Errorf("set-up: no free port: %w", err)
}

// setupResult is what one set-up measured.
type setupResult struct {
	Seconds float64
	Layout  []int
}

// layoutAfter is the item count per range, in key order, after an
// ascending load of the first n keys when every overflow splits before the
// next insert: a split keeps the lower (n+1)/2 items.
func layoutAfter(n int) []int {
	layout := []int{0}
	for i := 0; i < n; i++ {
		last := len(layout) - 1
		layout[last]++
		if layout[last] > 2*storageFactor {
			n := layout[last]
			layout[last] = (n + 1) / 2
			layout = append(layout, n-(n+1)/2)
		}
	}
	return layout
}

// bootCluster starts the peers, loads the items in ascending key order
// through the client, waiting out every split before the next insert, and
// verifies the final layout. The set-up time runs from the first listener
// to the verified layout. A non-nil tracer wraps every transport
// and storage backend.
func bootCluster(seed int64, maxInflight int, tc *tracer) (*cluster, setupResult, error) {
	dir, err := os.MkdirTemp(stateDir, "cluster-")
	if err != nil {
		return nil, setupResult{}, err
	}
	c := &cluster{dir: dir, filler: makeFiller(seed)}
	sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench cluster key %d", seed)))
	key := sum[:]
	if tc != nil {
		c.insSucc = metrics.NewRecorder("insert-succ")
	}

	start := time.Now()
	for i := 0; i < numPeers; i++ {
		if err := c.startPeer(i, seed, key, tc); err != nil {
			c.close()
			return nil, setupResult{}, err
		}
	}
	// One pooled connection per peer: the smart client reaches every owner
	// directly.
	ctr := tcp.New(tcp.Config{DialTimeout: 2 * time.Second, CallTimeout: 10 * time.Second, ConnsPerPeer: 1, ClusterKey: key})
	c.clientTr = wrapTransport(ctr, tc, true)
	seeds := make([]transport.Addr, len(c.nodes))
	for i, n := range c.nodes {
		seeds[i] = n.Peer.Addr
	}
	c.cli, err = client.New(c.clientTr, client.Config{
		Seeds:       seeds,
		ID:          clientID,
		OpTimeout:   10 * time.Second,
		MaxInflight: maxInflight,
	})
	if err == nil {
		err = c.load()
	}
	var layout []int
	if err == nil {
		layout, err = c.verifyLayout()
	}
	if err != nil {
		c.close()
		return nil, setupResult{}, err
	}
	return c, setupResult{Seconds: time.Since(start).Seconds(), Layout: layout}, nil
}

// startPeer boots peer i: its own authenticated TCP transport, identity and
// disk storage. Peer 0 bootstraps the ring; the others announce to it as
// free peers and wait to be drawn in by splits.
func (c *cluster) startPeer(i int, seed int64, key []byte, tc *tracer) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	id, err := auth.NewIdentity()
	if err != nil {
		return err
	}
	factory := storage.DiskFactory{Dir: fmt.Sprintf("%s/peer%d", c.dir, i), Opts: storage.Options{SyncInterval: walSync}}
	ptr := tcp.New(tcp.Config{
		DialTimeout: 2 * time.Second,
		CallTimeout: 10 * time.Second,
		ClusterKey:  key,
		Identity:    id,
		Stager:      factory.NewStager,
	})
	tr := wrapTransport(ptr, tc, false)
	c.transports = append(c.transports, tr)
	cfg := peerConfig(seed + int64(i))
	cfg.Storage = wrapFactory(factory, tc)
	cfg.Identities = func(transport.Addr) (*auth.Identity, error) { return id, nil }
	cfg.Store.InsertSuccRecorder = c.insSucc
	n, err := core.NewStandalone(tr, addr, cfg)
	if err != nil {
		return err
	}
	c.nodes = append(c.nodes, n)
	if i == 0 {
		return n.Bootstrap()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return n.JoinAsFree(ctx, c.nodes[0].Peer.Addr)
}

// serving returns how many peers are joined and own a range, and the most
// items any of them holds.
func (c *cluster) serving() (n int, maxItems int) {
	for _, node := range c.nodes {
		p := node.CurrentPeer()
		if _, ok := p.Store.Range(); ok && p.Ring.State() == ring.StateJoined {
			n++
			if k := p.Store.ItemCount(); k > maxItems {
				maxItems = k
			}
		}
	}
	return n, maxItems
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// load inserts the items in ascending key order. After every insert that
// overflows the top range, it waits until the split has drawn one more peer
// in and no range is over 2·sf, so every run builds the same ranges. Which
// inserts overflow follows from the load order alone: reading it from the
// peers' item counts right after the insert once missed an overflow, and
// the load ran ahead of the split.
func (c *cluster) load() error {
	ctx := context.Background()
	for i := 1; i <= numItems; i++ {
		k := itemKey(i)
		if err := c.cli.Insert(ctx, datastore.Item{Key: k, Payload: payload(c.filler, k, 0)}); err != nil {
			return fmt.Errorf("set-up: insert %d: %w", k, err)
		}
		ranges := len(layoutAfter(i))
		if ranges == len(layoutAfter(i-1)) {
			continue
		}
		err := waitFor(30*time.Second, "a split", func() bool {
			n, max := c.serving()
			return n == ranges && max <= 2*storageFactor
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyLayout waits until the ranges partition the key space with the
// expected item counts, then checks that a full-range query through the
// client returns exactly the loaded items.
func (c *cluster) verifyLayout() ([]int, error) {
	want := layoutAfter(numItems)
	var got []int
	err := waitFor(30*time.Second, "the final layout", func() bool {
		got = c.layout()
		return equalInts(got, want)
	})
	if err != nil {
		return got, fmt.Errorf("%w: layout %v, want %v", err, got, want)
	}
	if err := c.checkFull(func(key keyspace.Key, p string) bool { return p == payload(c.filler, key, 0) }); err != nil {
		return got, err
	}
	return got, nil
}

// layout returns the item count of every serving range in key order.
func (c *cluster) layout() []int {
	type rc struct {
		hi keyspace.Key
		n  int
	}
	var rs []rc
	for _, node := range c.nodes {
		p := node.CurrentPeer()
		if r, ok := p.Store.Range(); ok && p.Ring.State() == ring.StateJoined {
			rs = append(rs, rc{r.Hi, p.Store.ItemCount()})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].hi < rs[j].hi })
	// The range holding the lowest keys wraps around the ring's top; rotate
	// so counts read in key order whatever the bootstrap's ring value.
	out := make([]int, len(rs))
	first := 0
	for i, r := range rs {
		if r.hi >= itemKey(1) {
			first = i
			break
		}
	}
	for i := range rs {
		out[i] = rs[(first+i)%len(rs)].n
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// errWrongResult marks a query answer that differs from the expected one.
var errWrongResult = errors.New("wrong result")

// checkFull runs a full-range query through the client and checks that it
// returns exactly the loaded key set with payloads accepted by ok.
func (c *cluster) checkFull(ok func(keyspace.Key, string) bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	items, err := c.cli.Query(ctx, keyspace.ClosedInterval(0, itemKey(numItems+1)))
	if err != nil {
		return fmt.Errorf("full-range check: %w", err)
	}
	if len(items) != numItems {
		return fmt.Errorf("full-range check: %w: %d items, want %d", errWrongResult, len(items), numItems)
	}
	for i, it := range items {
		if it.Key != itemKey(i+1) || !ok(it.Key, it.Payload) {
			return fmt.Errorf("full-range check: %w at position %d (key %d)", errWrongResult, i, it.Key)
		}
	}
	return nil
}

// structuralChanges sums splits, merges and redistributions over the peers.
func (c *cluster) structuralChanges() uint64 {
	var n uint64
	for _, node := range c.nodes {
		s := node.CurrentPeer().Store
		n += s.Splits.Load() + s.Merges.Load() + s.Redistributes.Load()
	}
	return n
}
