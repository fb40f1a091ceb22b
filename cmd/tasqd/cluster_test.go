package main

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"tasq/internal/serve"
)

func TestClusterFlagValidation(t *testing.T) {
	// -peers without -cluster-id: the member would have no ring key.
	err := run(context.Background(), []string{
		"-model", trainModel(t),
		"-peers", "http://other:8080",
		"-addr", "127.0.0.1:0",
	})
	if err == nil {
		t.Fatal("-peers without -cluster-id accepted")
	}
}

// TestClusterIdentityEndpoint boots a daemon in cluster mode and reads
// its fleet identity back through GET /v1/cluster.
func TestClusterIdentityEndpoint(t *testing.T) {
	modelPath := trainModel(t)

	addrCh := make(chan net.Addr, 1)
	testOnListen = func(a net.Addr) { addrCh <- a }
	defer func() { testOnListen = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-model", modelPath,
			"-addr", "127.0.0.1:0",
			"-cluster-id", "r1",
			"-peers", "http://r0:8080, http://r2:8080,",
			"-drain", "5s",
			"-quiet",
		})
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for listener")
	}
	client := serve.NewClient("http://" + addr.String())
	st, err := client.Cluster(context.Background())
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if st.ID != "r1" {
		t.Fatalf("member ID %q, want r1", st.ID)
	}
	// Whitespace and the trailing comma in -peers are tolerated.
	if got := fmt.Sprint(st.Peers); got != "[http://r0:8080 http://r2:8080]" {
		t.Fatalf("peers %s", got)
	}
	if !st.Ready || st.ActiveVersion != 0 {
		t.Fatalf("status %+v, want ready unversioned model", st)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}
}
