package deltaserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/cluster"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/flightrec"
	"cbde/internal/origin"
)

// clusterStack is an n-node delta-server tier over one origin, every node
// running its own engine with strided version numbering. Every node gets a
// flight recorder (threshold 0 = sample everything) so trace tests can read
// back what each hop saw.
type clusterStack struct {
	site     *origin.Site
	servers  []*Server
	fronts   []*httptest.Server
	clusters []*cluster.Cluster
	flights  []*flightrec.Recorder
}

func newClusterStack(t *testing.T, n int, redirect bool) *clusterStack {
	t.Helper()
	site := testSite()
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)

	// The peer URLs must exist before the servers are built, so each front
	// dispatches through a slot that is filled in afterwards.
	st := &clusterStack{site: site, servers: make([]*Server, n)}
	for i := 0; i < n; i++ {
		i := i
		front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			st.servers[i].ServeHTTP(w, r)
		}))
		t.Cleanup(front.Close)
		st.fronts = append(st.fronts, front)
	}
	peers := make([]cluster.Node, n)
	for i := range peers {
		peers[i] = cluster.Node{ID: fmt.Sprintf("node-%d", i), URL: st.fronts[i].URL}
	}
	for i := 0; i < n; i++ {
		cl, err := cluster.New(cluster.Config{Self: peers[i].ID, Peers: peers, Redirect: redirect})
		if err != nil {
			t.Fatal(err)
		}
		base := time.Unix(1_000_000, 0)
		seq := 0
		eng, err := core.NewEngine(core.Config{
			Anon: anonymize.Config{M: 1, N: 2},
			Selector: basefile.Config{
				VersionStride: cl.Size(),
				VersionOffset: cl.SelfIndex(),
			},
			Now: func() time.Time { seq++; return base.Add(time.Duration(seq) * time.Second) },
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetTracing(true)
		fr := flightrec.New(peers[i].ID, 64, 0)
		srv, err := New(originSrv.URL, eng,
			WithPublicHost("www.shop.com"), WithCluster(cl),
			WithNodeID(peers[i].ID), WithFlightRecorder(fr))
		if err != nil {
			t.Fatal(err)
		}
		st.servers[i] = srv
		st.clusters = append(st.clusters, cl)
		st.flights = append(st.flights, fr)
	}
	return st
}

// ownerAndOther returns the index of the node owning path's class and the
// index of some other node.
func (st *clusterStack) ownerAndOther(path string) (owner, other int) {
	key := st.servers[0].engine.OwnerKey("www.shop.com" + path)
	ownerID := st.clusters[0].Owner(key).ID
	owner, other = -1, -1
	for i, cl := range st.clusters {
		if cl.Self().ID == ownerID {
			owner = i
		} else {
			other = i
		}
	}
	return owner, other
}

// TestClusterForwarding: a document request landing on a non-owning node is
// answered via exactly one forward hop, byte-identically to what the owner
// serves, and the counters attribute it correctly on both sides.
func TestClusterForwarding(t *testing.T) {
	st := newClusterStack(t, 3, false)
	const path = "/laptops/3"
	owner, other := st.ownerAndOther(path)

	respOther, bodyOther := doGet(t, st.fronts[other].URL+path,
		map[string]string{deltahttp.HeaderUser: "alice"})
	if respOther.StatusCode != http.StatusOK {
		t.Fatalf("status via non-owner = %d", respOther.StatusCode)
	}
	want, err := st.site.Render("laptops", 3, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bodyOther, want) {
		t.Error("forwarded response is not the exact document")
	}
	// The entry node counts the forward after it has relayed the response.
	for deadline := time.Now().Add(2 * time.Second); st.clusters[other].Ctr.Forwarded.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := st.clusters[other].Ctr.Forwarded.Value(); got != 1 {
		t.Errorf("non-owner Forwarded = %d, want 1", got)
	}
	if got := st.clusters[owner].Ctr.HopGuard.Value(); got != 1 {
		t.Errorf("owner HopGuard = %d, want 1", got)
	}
	if got := st.clusters[owner].Ctr.Forwarded.Value(); got != 0 {
		t.Errorf("owner Forwarded = %d, want 0 (hop guard must stop re-forwarding)", got)
	}

	// Owner-served requests count as owned, not forwarded.
	respOwner, bodyOwner := doGet(t, st.fronts[owner].URL+path,
		map[string]string{deltahttp.HeaderUser: "alice"})
	if respOwner.StatusCode != http.StatusOK || !bytes.Equal(bodyOwner, want) {
		t.Error("owner-served response wrong")
	}
	if got := st.clusters[owner].Ctr.Owned.Value(); got != 1 {
		t.Errorf("owner Owned = %d, want 1", got)
	}
}

// TestClusterForwardPreservesIdentity is the regression test for the
// forwarded-request identity bug: the owner must classify and anonymize on
// the ORIGINAL client's identity, not the forwarding node's. Identity
// reaches the engine via X-CBDE-User and via cookies; both must survive the
// hop.
func TestClusterForwardPreservesIdentity(t *testing.T) {
	st := newClusterStack(t, 3, false)
	const path = "/laptops/3"
	_, other := st.ownerAndOther(path)

	// Header identity: the owner's origin fetch must render bob's document.
	_, body := doGet(t, st.fronts[other].URL+path,
		map[string]string{deltahttp.HeaderUser: "bob"})
	want, err := st.site.Render("laptops", 3, "bob", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("forwarded request lost its header identity")
	}

	// Cookie identity crosses the hop too.
	req, err := http.NewRequest(http.MethodGet, st.fronts[other].URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.AddCookie(&http.Cookie{Name: "uid", Value: "carol"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	want, err = st.site.Render("laptops", 3, "carol", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("forwarded request lost its cookie identity")
	}
	// The anonymization user count on the owner advanced with the real
	// identities: warm with distinct users through the NON-owner and check
	// the owner eventually distributes a base (it only does so after N=2
	// distinct users).
	var classID string
	var version int
	for i := 0; i < 12; i++ {
		resp, _ := doGet(t, st.fronts[other].URL+path, map[string]string{
			deltahttp.HeaderUser: "warm-user-" + strconv.Itoa(i),
		})
		classID = resp.Header.Get(deltahttp.HeaderClass)
		if v := resp.Header.Get(deltahttp.HeaderLatestVersion); v != "" {
			version, _ = strconv.Atoi(v)
		}
	}
	if classID == "" || version == 0 {
		t.Fatalf("anonymization never completed through the forward hop (class %q version %d)", classID, version)
	}
}

// TestClusterVersionStriding: bases minted by different nodes carry version
// numbers in disjoint residue classes, so an ownership move can never reuse
// a (class, version) pair.
func TestClusterVersionStriding(t *testing.T) {
	st := newClusterStack(t, 3, false)
	const path = "/laptops/1"
	owner, other := st.ownerAndOther(path)

	warmNode := func(i int) int {
		var version int
		for j := 0; j < 12; j++ {
			resp, _ := doGet(t, st.fronts[i].URL+path, map[string]string{
				deltahttp.HeaderUser:      fmt.Sprintf("warm-%d-%d", i, j),
				deltahttp.HeaderForwarded: "test-bypass", // pin to this node
			})
			if v := resp.Header.Get(deltahttp.HeaderLatestVersion); v != "" {
				version, _ = strconv.Atoi(v)
			}
		}
		return version
	}
	vOwner := warmNode(owner)
	vOther := warmNode(other)
	if vOwner == 0 || vOther == 0 {
		t.Fatalf("warm failed: owner v%d, other v%d", vOwner, vOther)
	}
	stride := st.clusters[0].Size()
	if vOwner%stride != st.clusters[owner].SelfIndex() {
		t.Errorf("owner minted v%d outside its residue class %d (mod %d)",
			vOwner, st.clusters[owner].SelfIndex(), stride)
	}
	if vOther%stride != st.clusters[other].SelfIndex() {
		t.Errorf("other minted v%d outside its residue class %d (mod %d)",
			vOther, st.clusters[other].SelfIndex(), stride)
	}
	if vOwner == vOther {
		t.Errorf("two nodes minted the same version %d", vOwner)
	}
}

// TestClusterRedirectMode: with -cluster-redirect, non-owned requests are
// answered with a 307 at the owner instead of a proxy hop.
func TestClusterRedirectMode(t *testing.T) {
	st := newClusterStack(t, 3, true)
	const path = "/laptops/5"
	owner, other := st.ownerAndOther(path)

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(st.fronts[other].URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != st.fronts[owner].URL+path {
		t.Errorf("Location = %q, want %q", loc, st.fronts[owner].URL+path)
	}
	if got := st.clusters[other].Ctr.Redirected.Value(); got != 1 {
		t.Errorf("Redirected = %d, want 1", got)
	}
	// A client that follows the redirect lands on the owner and gets the
	// document; default clients do this transparently.
	_, body := doGet(t, st.fronts[other].URL+path, map[string]string{deltahttp.HeaderUser: "dora"})
	want, err := st.site.Render("laptops", 5, "dora", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("redirect-following client did not get the exact document")
	}
}

// TestClusterFailover: when the owner is marked dead, the next-ranked node
// serves the class locally (no forward), and when the owner rises again
// traffic fails back.
func TestClusterFailover(t *testing.T) {
	st := newClusterStack(t, 3, false)
	const path = "/laptops/7"
	owner, other := st.ownerAndOther(path)
	ownerID := st.clusters[owner].Self().ID

	for _, cl := range st.clusters {
		cl.SetAlive(ownerID, false)
	}
	forwardedBefore := st.clusters[other].Ctr.Forwarded.Value()
	resp, body := doGet(t, st.fronts[other].URL+path, map[string]string{deltahttp.HeaderUser: "eve"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status during failover = %d", resp.StatusCode)
	}
	want, err := st.site.Render("laptops", 7, "eve", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("failover response is not the exact document")
	}
	// The request either stayed local (the other node is now the owner) or
	// crossed one hop to the new owner — never to the dead node.
	if st.clusters[other].Ctr.ForwardErrors.Value() != 0 {
		t.Error("failover tried to reach the dead owner")
	}
	_ = forwardedBefore

	for _, cl := range st.clusters {
		cl.SetAlive(ownerID, true)
	}
	if key := st.servers[0].engine.OwnerKey("www.shop.com" + path); !st.clusters[owner].Owns(key) {
		t.Error("ownership did not fail back to the original owner")
	}
}

// TestClusterEndpoints: /_cbde/health answers 200 everywhere; /_cbde/cluster
// serves the membership snapshot on clustered nodes and 404 standalone.
func TestClusterEndpoints(t *testing.T) {
	st := newClusterStack(t, 2, false)
	resp, _ := doGet(t, st.fronts[0].URL+deltahttp.HealthPath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health status = %d", resp.StatusCode)
	}
	resp, body := doGet(t, st.fronts[0].URL+deltahttp.ClusterPath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster status = %d", resp.StatusCode)
	}
	var cs cluster.Status
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Self != "node-0" || len(cs.Peers) != 2 {
		t.Errorf("cluster snapshot = %+v", cs)
	}

	// Standalone servers 404 the endpoint.
	_, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	resp, _ = doGet(t, front.URL+deltahttp.ClusterPath, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("standalone cluster status = %d, want 404", resp.StatusCode)
	}
}

// TestClusterRemoteBase: a delta-capable client that got its delta through
// a forward hop fetches the base-file from its own node, which pulls it
// peer-to-peer from the owner.
func TestClusterRemoteBase(t *testing.T) {
	st := newClusterStack(t, 3, false)
	const path = "/laptops/1"
	owner, other := st.ownerAndOther(path)

	// Warm the class through the non-owner so the owner mints a base.
	var classID string
	var version int
	for i := 0; i < 12; i++ {
		resp, _ := doGet(t, st.fronts[other].URL+path, map[string]string{
			deltahttp.HeaderUser: "warm-user-" + strconv.Itoa(i),
		})
		classID = resp.Header.Get(deltahttp.HeaderClass)
		if v := resp.Header.Get(deltahttp.HeaderLatestVersion); v != "" {
			version, _ = strconv.Atoi(v)
		}
	}
	if classID == "" || version == 0 {
		t.Fatal("class never warmed")
	}

	// Fetch the base through the NON-owner: not resident there, so it must
	// be proxied from the owner.
	resp, body := doGet(t, st.fronts[other].URL+deltahttp.BasePath(classID, version), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remote base status = %d", resp.StatusCode)
	}
	ownerBase, ok := st.servers[owner].engine.BaseFileView(classID, version)
	if !ok {
		t.Fatal("owner does not hold the version it advertised")
	}
	if !bytes.Equal(body, ownerBase) {
		t.Error("proxied base differs from the owner's")
	}
	if resp.ContentLength != int64(len(ownerBase)) {
		t.Errorf("proxied base arrived with Content-Length %d, want the %d the owner stated", resp.ContentLength, len(ownerBase))
	}
	if got := st.clusters[other].Ctr.RemoteBase.Value(); got != 1 {
		t.Errorf("RemoteBase = %d, want 1", got)
	}
}
