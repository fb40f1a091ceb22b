package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"tasq/internal/jobrepo"
	"tasq/internal/scopesim"
	"tasq/internal/trainer"
	"tasq/internal/workload"
)

func smallPipeline(t *testing.T) *trainer.Pipeline {
	t.Helper()
	g := workload.New(workload.TestConfig(11))
	repo := jobrepo.New()
	var ex scopesim.Executor
	if err := repo.Ingest(g.Workload(30), &ex); err != nil {
		t.Fatal(err)
	}
	cfg := trainer.DefaultConfig(11)
	cfg.XGB.NumTrees = 8
	cfg.SkipNN = true
	cfg.SkipGNN = true
	p, err := trainer.Train(repo.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClusterInfoEndpoint(t *testing.T) {
	peers := []string{"http://peer-b:8080", "http://peer-c:8080"}
	srv, err := NewUnloadedServer(WithClusterInfo("r0", peers))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	// Unloaded: identity answers even before a model is installed, and
	// honestly reports not-ready.
	st, err := client.Cluster(context.Background())
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if st.ID != "r0" || fmt.Sprint(st.Peers) != fmt.Sprint(peers) {
		t.Fatalf("identity %+v, want r0 with peers %v", st, peers)
	}
	if st.Ready || st.ActiveVersion != 0 || st.ShadowVersion != 0 {
		t.Fatalf("unloaded server status %+v, want not ready at v0", st)
	}

	// After a versioned load the serving state shows through.
	p := smallPipeline(t)
	if err := srv.SetActive(p, 3); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetShadow(p, 4); err != nil {
		t.Fatal(err)
	}
	st, err = client.Cluster(context.Background())
	if err != nil {
		t.Fatalf("cluster after load: %v", err)
	}
	if !st.Ready || st.ActiveVersion != 3 || st.ShadowVersion != 4 {
		t.Fatalf("loaded server status %+v, want ready active v3 shadow v4", st)
	}

	// Wrong method.
	resp, err := http.Post(ts.URL+"/v1/cluster", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/cluster = %d, want 405", resp.StatusCode)
	}
}

func TestClusterInfoDisabled(t *testing.T) {
	srv, err := NewUnloadedServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, err = NewClient(ts.URL).Cluster(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("cluster on non-fleet server: want 404, got %v", err)
	}
}
