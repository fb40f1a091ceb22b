package serve

// Fleet identity: when tasqd runs as one replica of a sharded fleet
// (cmd/tasqd -cluster-id/-peers), GET /v1/cluster reports who this
// member is, who its peers are, and what it is serving right now —
// enough for a balancer or an operator to map fleet membership without
// scraping metrics.

import (
	"context"
	"net/http"
)

// ClusterStatus is the GET /v1/cluster response.
type ClusterStatus struct {
	// ID is this replica's fleet member ID (the consistent-hash ring
	// key); Peers lists the other members' base URLs as configured.
	ID    string   `json:"id"`
	Peers []string `json:"peers,omitempty"`
	// ActiveVersion and ShadowVersion mirror the serving state so a
	// rolling promotion wave can be watched member by member.
	ActiveVersion int  `json:"active_version"`
	ShadowVersion int  `json:"shadow_version,omitempty"`
	Ready         bool `json:"ready"`
}

// WithClusterInfo identifies this server as one member of a tasqd fleet
// and enables GET /v1/cluster. peers lists the other members' base URLs
// (informational — routing lives in the client-side balancer).
func WithClusterInfo(id string, peers []string) Option {
	return func(s *Server) {
		s.clusterID = id
		s.clusterPeers = append([]string(nil), peers...)
	}
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.clusterID == "" {
		http.Error(w, "serve: cluster mode not enabled", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, ClusterStatus{
		ID:            s.clusterID,
		Peers:         s.clusterPeers,
		ActiveVersion: s.ActiveVersion(),
		ShadowVersion: s.ShadowVersion(),
		Ready:         s.Ready(),
	})
}

// Cluster fetches the server's fleet identity and serving state.
func (c *Client) Cluster(ctx context.Context) (*ClusterStatus, error) {
	return decoded[ClusterStatus](c.do(ctx, http.MethodGet, "/v1/cluster", nil, retryIdempotent))
}
