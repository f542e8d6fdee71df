package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
	"webdbsec/internal/synth"
	"webdbsec/internal/uddi"
	"webdbsec/internal/wsa"
	"webdbsec/internal/wsig"
	"webdbsec/internal/xmldoc"
)

// providerName is the signer name uddiserver's demo provider uses; its
// key is printed at startup and is all a requestor trusts.
const providerName = "demo-provider"

// requestor is a UDDI client holding a wallet issued by the benchmark's
// own credential authority. Half carry the partner role, which the
// server's policy requires to see binding templates.
type requestor struct {
	id        string
	partner   bool
	wallet    *credential.Wallet
	walletEnc string
}

func (r *requestor) roles() []string {
	if r.partner {
		return []string{"partner"}
	}
	return []string{"member"}
}

// newRequestors issues one single-credential wallet per requestor.
func newRequestors(ca *credential.Authority, n int) ([]*requestor, error) {
	var out []*requestor
	for i := 0; i < n; i++ {
		r := &requestor{id: fmt.Sprintf("req-%02d", i), partner: i%2 == 0}
		r.wallet = credential.NewWallet(r.id)
		if err := r.wallet.Add(ca.Issue(r.roles()[0], r.id, nil)); err != nil {
			return nil, err
		}
		enc, err := authtoken.EncodeWallet(r.wallet)
		if err != nil {
			return nil, err
		}
		r.walletEnc = enc
		out = append(out, r)
	}
	return out, nil
}

// uddiReq is one envelope: a Merkle-authenticated drill-down on an
// agency entry, or a save_business of one of the requestor's own
// entries into the server's registry.
type uddiReq struct {
	who  *requestor
	save bool
	key  string
}

func (r *uddiReq) envelope() string {
	if r.save {
		return (&wsa.Envelope{Operation: "save_business", Sender: r.who.id, Roles: r.who.roles(),
			Body: synth.Entity(r.key, "logistics", 1).ToXML()}).Encode()
	}
	b := xmldoc.NewBuilder("req", "queryAuthenticated")
	b.Attrib("businessKey", r.key)
	return (&wsa.Envelope{Operation: "query_authenticated", Sender: r.who.id, Roles: r.who.roles(), Body: b.Freeze()}).Encode()
}

func entryKey(i int) string { return fmt.Sprintf("be-%05d", i) }

// uddiOutcome is an answer in comparable form.
type uddiOutcome struct {
	bindings bool
}

// verifyAnswer is the requestor-side check of a query answer: the
// envelope must carry an authenticated result whose view verifies
// against the provider key. It returns the verified result.
func verifyAnswer(status int, body []byte, dir *wsig.KeyDirectory) (*uddi.AuthenticatedResult, error) {
	env, err := wsa.DecodeEnvelope(strings.NewReader(string(body)))
	if err != nil {
		return nil, fmt.Errorf("status %d: %w", status, err)
	}
	if status != http.StatusOK || env.Fault != "" {
		return nil, fmt.Errorf("status %d: fault %q", status, env.Fault)
	}
	res, err := wsa.DecodeAuthenticated(env.Body)
	if err != nil {
		return nil, err
	}
	if err := res.Verify(dir); err != nil {
		return nil, fmt.Errorf("view does not verify: %w", err)
	}
	return res, nil
}

// checkView applies the policy to a verified view: it must be the
// requested entry, and binding templates must be present exactly for
// partners.
func checkView(r *uddiReq, res *uddi.AuthenticatedResult) (uddiOutcome, error) {
	if k, _ := res.View.Root.Attr("businessKey"); k != r.key {
		return uddiOutcome{}, fmt.Errorf("asked for %s, got view of %q", r.key, k)
	}
	got := hasElement(res.View.Root, "bindingTemplate")
	if got && !r.who.partner {
		return uddiOutcome{}, fmt.Errorf("policy violation: %s (no partner role) was served the bindings of %s", r.who.id, r.key)
	}
	if !got && r.who.partner {
		return uddiOutcome{}, fmt.Errorf("partner %s was denied the bindings of %s", r.who.id, r.key)
	}
	return uddiOutcome{bindings: got}, nil
}

// checkSave accepts exactly an ok envelope.
func checkSave(r *uddiReq, status int, body []byte) error {
	env, err := wsa.DecodeEnvelope(strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("save %s: status %d: %w", r.key, status, err)
	}
	if status != http.StatusOK || env.Fault != "" || env.Body == nil {
		return fmt.Errorf("save %s: status %d fault %q", r.key, status, env.Fault)
	}
	if st, _ := env.Body.Root.Attr("status"); st != "ok" {
		return fmt.Errorf("save %s: status %q", r.key, st)
	}
	return nil
}

// checkUDDI is the full oracle for one answer.
func checkUDDI(r *uddiReq, status int, body []byte, dir *wsig.KeyDirectory) (uddiOutcome, error) {
	if r.save {
		return uddiOutcome{}, checkSave(r, status, body)
	}
	res, err := verifyAnswer(status, body, dir)
	if err != nil {
		return uddiOutcome{}, fmt.Errorf("query %s by %s: %w", r.key, r.who.id, err)
	}
	return checkView(r, res)
}

func hasElement(n *xmldoc.Node, name string) bool {
	if n.Kind == xmldoc.KindElement && n.Name == name {
		return true
	}
	for _, c := range n.Children {
		if hasElement(c, name) {
			return true
		}
	}
	return false
}

// uddiWorkload is the generated sequence of uddi-auth-4k.
type uddiWorkload struct {
	warm   []*op
	open   []*op
	closed []*op
	writes []*op
}

func uddiOp(r *uddiReq) *op {
	c := classRead
	if r.save {
		c = classWrite
	}
	o := newOp(c)
	o.uddi = r
	return o
}

// uddiMix draws Zipf(1.1) keys over the entries through a seeded
// permutation, so the hot keys differ per seed.
func uddiMix(rng *rand.Rand, reqs []*requestor, entries int, c counts) *uddiWorkload {
	w := &uddiWorkload{}
	perm := rng.Perm(entries)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(entries-1))
	query := func() *op {
		return uddiOp(&uddiReq{who: reqs[rng.Intn(len(reqs))], key: entryKey(perm[zipf.Uint64()])})
	}
	for i := 0; i < c.warm; i++ {
		w.warm = append(w.warm, query())
	}
	for i := 0; i < c.open; i++ {
		w.open = append(w.open, query())
	}
	for i := 0; i < c.closed; i++ {
		w.closed = append(w.closed, query())
	}
	for i := 0; i < c.writes; i++ {
		who := reqs[rng.Intn(len(reqs))]
		w.writes = append(w.writes, uddiOp(&uddiReq{who: who, save: true, key: fmt.Sprintf("bench-%s-%d", who.id, rng.Intn(4))}))
	}
	return w
}

// uddiTarget drives a running uddiserver.
type uddiTarget struct {
	srv *server
	url string
	dir *wsig.KeyDirectory
}

func (t *uddiTarget) alive() error { return t.srv.alive() }

func (t *uddiTarget) send(ctx context.Context, w *worker, o *op) (time.Time, func() error, error) {
	r := o.uddi
	status, body, err := t.do(ctx, w, r)
	end := time.Now()
	if err != nil {
		return end, nil, err
	}
	return end, func() error {
		_, err := checkUDDI(r, status, body, t.dir)
		return err
	}, nil
}

// do sends r on w's token chain for the requestor. Without a live token
// the wallet rides along and the server qualifies it and mints; a 401 to
// a presented token with no successor closes the chain and the request
// is retried once on the wallet.
func (t *uddiTarget) do(ctx context.Context, w *worker, r *uddiReq) (int, []byte, error) {
	payload := r.envelope()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, strings.NewReader(payload))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/xml")
		tok := w.tokens[r.who.id]
		if tok != "" {
			req.Header.Set(authtoken.TokenHeader, tok)
		} else {
			req.Header.Set(authtoken.WalletHeader, r.who.walletEnc)
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, err
		}
		if succ := resp.Header.Get(authtoken.TokenHeader); succ != "" {
			w.tokens[r.who.id] = succ
		} else {
			delete(w.tokens, r.who.id)
			if resp.StatusCode == http.StatusUnauthorized && tok != "" && attempt == 0 {
				continue
			}
		}
		return resp.StatusCode, body, nil
	}
}
