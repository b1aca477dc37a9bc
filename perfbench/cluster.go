package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"stash/internal/cellcache"
	"stash/internal/cluster"
	"stash/internal/serve"
)

// The stashd-mix cluster: one coordinator over two shards. The base URLs
// are fixed names that the benchmark's own transport dials to loopback
// listeners, so ring ownership, and with it the request sequence,
// depends only on the seed.
var shardURLs = []string{"http://s0.perfbench", "http://s1.perfbench"}

const coordURL = "http://coordinator.perfbench"

// loopback resolves the cluster's fixed base URLs to the listeners
// serving them.
type loopback struct {
	mu    sync.Mutex
	addrs map[string]string // "host:80" -> listener address
}

func (l *loopback) set(base, addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addrs[strings.TrimPrefix(base, "http://")+":80"] = addr
}

func (l *loopback) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	l.mu.Lock()
	to, ok := l.addrs[addr]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("perfbench: no listener for %s", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, to)
}

// node is one running HTTP server of the cluster.
type node struct {
	srv   *http.Server
	done  chan struct{} // closed at shutdown: stops the shard's queued cells
	cache *cellcache.Cache
	wg    sync.WaitGroup
}

func startNode(lb *loopback, base string, h http.Handler, cache *cellcache.Cache, done chan struct{}) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb.set(base, ln.Addr().String())
	n := &node{srv: &http.Server{Handler: h}, done: done, cache: cache}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	}()
	return n, nil
}

func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n.done != nil {
		close(n.done)
	}
	err := n.srv.Shutdown(ctx)
	n.wg.Wait()
	if n.cache != nil {
		if cerr := n.cache.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// stashCluster is a coordinator (nodes[0]) over the two shards.
type stashCluster struct{ nodes []*node }

// startCluster opens each shard's remote+pairtree cache under dir and
// serves the shards and the coordinator on loopback. wrap, when non-nil,
// wraps each handler for tracing.
func startCluster(dir string, lb *loopback, client *http.Client, wrap func(role string, h http.Handler) http.Handler) (*stashCluster, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	c := &stashCluster{}
	for i, base := range shardURLs {
		sp, err := cellcache.ParseSpec(fmt.Sprintf("remote+pairtree://%s?entries=%d&bytes=1GiB&peers=%s&self=%s&remote_timeout=10s",
			filepath.Join(dir, fmt.Sprint("shard", i)), memEntries, strings.Join(shardURLs, ","), base))
		if err != nil {
			return nil, errors.Join(err, c.stop())
		}
		sp.Remote.Client = client
		cache, err := sp.Open()
		if err != nil {
			return nil, errors.Join(err, c.stop())
		}
		done := make(chan struct{})
		srv := serve.New(serve.Config{Cache: cache, Workers: 1}, done)
		n, err := startNode(lb, base, wrap("shard", srv.Handler()), cache, done)
		if err != nil {
			return nil, errors.Join(err, cache.Close(), c.stop())
		}
		c.nodes = append(c.nodes, n)
	}
	cc, err := cluster.New(shardURLs, cluster.Options{Client: client})
	if err != nil {
		return nil, errors.Join(err, c.stop())
	}
	coord := serve.NewCoordinator(serve.CoordinatorConfig{Cluster: cc})
	n, err := startNode(lb, coordURL, wrap("coord", coord.Handler()), nil, nil)
	if err != nil {
		return nil, errors.Join(err, c.stop())
	}
	c.nodes = append([]*node{n}, c.nodes...)
	return c, nil
}

// stop shuts the coordinator down first, then the shards.
func (c *stashCluster) stop() error {
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.stop())
	}
	c.nodes = nil
	return errors.Join(errs...)
}
