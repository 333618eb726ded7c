package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"xqtp"
	"xqtp/internal/gen"
	"xqtp/internal/xdm"
	"xqtp/internal/xmlstore"
)

// workload fixes one traffic mix: the corpora xqd serves, the flags it
// starts with, the requests, and the open-loop rates. The nominal rate was
// calibrated once on a 2-CPU virtual machine to sit well below saturation,
// so its latency percentiles are steady; the rate ladder is the nominal
// rate and twice it. A rate too low to keep the CPUs busy lets the host's
// wake-up delay into the latency of short requests, so short-request
// workloads run faster than their load alone would call for.
type workload struct {
	name    string
	flags   []string      // xqd flags besides -addr and -corpus
	nominal float64       // req/s at which latency is reported
	limit   time.Duration // p99 latency limit of a sustained rate
	// build generates the corpora under b.dir, registers them, and fills
	// b.warm (one request per distinct shape); next returns the i-th
	// request of the measured sequence.
	build func(b *bench) error
	next  func(b *bench, i int) *request
}

// request is one HTTP call of a workload. Identical requests share one
// *request, and with it one oracle evaluation.
type request struct {
	shape  string // warm-up / per-shape statistics class
	corpus string
	query  string
	format string
	limit  int64
	path   string // /query or /extend
	body   []byte
	batch  int // extend batch number (path /extend)
	exp    *expected
}

var workloads = []*workload{
	{
		name:    "twig-count",
		flags:   []string{"-no-result-cache"},
		nominal: 80,
		limit:   150 * time.Millisecond,
		build:   buildTwigCount,
		next:    func(b *bench, i int) *request { return b.warm[b.nextInBlock(len(b.warm))] },
	},
	{
		name:    "stream-rows",
		flags:   []string{"-no-result-cache"},
		nominal: 60,
		limit:   150 * time.Millisecond,
		build:   buildStreamRows,
		next:    nextStreamRows,
	},
	{
		name:    "adhoc-compile",
		nominal: 300,
		limit:   50 * time.Millisecond,
		build:   buildAdhoc,
		next:    nextAdhoc,
	},
	{
		name:    "corpus-mixed",
		nominal: 40,
		limit:   400 * time.Millisecond,
		build:   buildCorpusMixed,
		next:    nextCorpusMixed,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// nextInBlock deals the indexes 0..n-1 in seeded shuffled blocks, so every
// stretch of n requests holds each one once: the mix a window measures is
// the same for every seed, only its order differs.
func (b *bench) nextInBlock(n int) int {
	if len(b.block) == 0 {
		b.block = b.rng.Perm(n)
	}
	i := b.block[0]
	b.block = b.block[1:]
	return i
}

// query builds (or reuses) the request for one query text.
func (b *bench) query(shape, corpus, query, format string, limit int64) *request {
	body, err := json.Marshal(map[string]any{
		"query": query, "corpus": corpus, "alg": "auto", "format": format, "limit": limit,
	})
	if err != nil {
		panic(err) // a map of strings and ints always marshals
	}
	key := string(body)
	if r, ok := b.distinct[key]; ok {
		return r
	}
	r := &request{shape: shape, corpus: corpus, query: query, format: format, limit: limit, path: "/query", body: body}
	b.distinct[key] = r
	b.order = append(b.order, r)
	return r
}

// writeXML serializes a generated skeleton to a file under b.dir and
// returns its path relative to the checkout root.
func (b *bench) writeXML(name string, root *xdm.Node) (string, error) {
	path := b.dir + "/" + name
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := xmlstore.Serialize(w, root); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, syncClose(f)
}

func genXML(root *xdm.Node) []byte {
	w := xmlstore.NewIngestWriter(0)
	if err := xmlstore.Serialize(w, root); err != nil {
		panic(err) // IngestWriter.Write cannot fail
	}
	return w.Bytes()
}

// Table 1's 11 MB MemBeR document and the Fig. 6 2000-person XMark one.
const (
	memberNodes = 11_000_000 / 9
	xmarkPeople = 2000
	adhocPeople = 100
	corpusDocs  = 3000
	extendEvery = 300 // corpus-mixed: one POST /extend per this many requests
	extendDocs  = 4
	zipfKeys    = 300 // > the 256-entry plan cache
)

func buildTwigCount(b *bench) error {
	mpath, err := b.writeXML("member.xml", gen.MemberRoot(gen.MemberConfig{
		Seed: b.seed, Depth: 4, NumTags: 100, NumNodes: memberNodes}))
	if err != nil {
		return err
	}
	xpath, err := b.writeXML("xmark.xml", gen.XMarkRoot(gen.XMarkConfig{Seed: b.seed, People: xmarkPeople}))
	if err != nil {
		return err
	}
	if err := b.loadXMLCorpus("member", mpath); err != nil {
		return err
	}
	if err := b.loadXMLCorpus("xmark", xpath); err != nil {
		return err
	}
	for _, q := range xqtp.QEQueries {
		b.warm = append(b.warm, b.query(q.Name, "member", "count("+q.Query+")", "ndjson", 0))
	}
	for _, q := range xqtp.Figure6Queries {
		b.warm = append(b.warm, b.query(q.Name+"-desc", "xmark", "count("+q.Descendant+")", "ndjson", 0))
	}
	for _, q := range xqtp.XMarkQueries {
		switch q.Name {
		case "XQ1":
			b.warm = append(b.warm, b.query(q.Name, "xmark", "count("+q.Query+")", "ndjson", 0))
		case "XQ5", "XQ6", "XQ7", "XQ20": // already scalar
			b.warm = append(b.warm, b.query(q.Name, "xmark", q.Query, "ndjson", 0))
		}
	}
	return nil
}

var streamQueries = func() []xqtp.PaperQuery {
	var qs []xqtp.PaperQuery
	for _, q := range xqtp.Figure6Queries {
		qs = append(qs, xqtp.PaperQuery{Name: q.Name, Query: q.Child})
	}
	for _, q := range xqtp.XMarkQueries {
		switch q.Name {
		case "XQ2", "XQ13", "XQ17", "XQ19":
			qs = append(qs, q)
		}
	}
	return qs
}()

var formats = []string{"ndjson", "xml"}

func buildStreamRows(b *bench) error {
	xpath, err := b.writeXML("xmark.xml", gen.XMarkRoot(gen.XMarkConfig{Seed: b.seed, People: xmarkPeople}))
	if err != nil {
		return err
	}
	if err := b.loadXMLCorpus("xmark", xpath); err != nil {
		return err
	}
	for _, q := range streamQueries {
		for _, f := range formats {
			for _, lim := range []int64{0, 10} {
				b.warm = append(b.warm, b.query(fmt.Sprintf("%s/%s/%d", q.Name, f, lim), "xmark", q.Query, f, lim))
			}
		}
	}
	return nil
}

// nextStreamRows alternates the two formats and limits one request in
// four to 10 rows: each block deals every query four times, once limited.
func nextStreamRows(b *bench, i int) *request {
	k := b.nextInBlock(4 * len(streamQueries))
	q := streamQueries[k/4]
	var lim int64
	if k%4 == 0 {
		lim = 10
	}
	f := formats[i%2]
	return b.query(fmt.Sprintf("%s/%s/%d", q.Name, f, lim), "xmark", q.Query, f, lim)
}

// adhocFamily is one §5.1 step family: PathVariants spells the path in
// every for/where form, and the predicate is a point lookup whose literal
// is drawn fresh for each request (nLits values, about half of them
// matching no node), so responses stay a few rows and compile dominates.
type adhocFamily struct {
	steps    []string
	predStep int
	pred     string // with LIT where the literal goes
	lit      string // literal format, %d the literal's number
	nLits    int
}

var adhocFamilies = []adhocFamily{
	{[]string{"site", "people", "person", "profile", "interest"}, 2, `@id = "LIT"`, "person%d", 2 * adhocPeople},
	{[]string{"site", "people", "person", "name"}, 2, `@id = "LIT"`, "person%d", 2 * adhocPeople},
	{[]string{"site", "open_auctions", "open_auction", "bidder", "increase"}, 2, `@id = "LIT"`, "open%d", adhocPeople},
	{[]string{"site", "closed_auctions", "closed_auction", "price"}, 2, `buyer/@person = "LIT"`, "person%d", 2 * adhocPeople},
}

type adhocTemplate struct {
	fam  int
	text string
	lits []int // the template's literals in seeded order; each used once
	used int
}

func buildAdhoc(b *bench) error {
	xpath, err := b.writeXML("xmark.xml", gen.XMarkRoot(gen.XMarkConfig{Seed: b.seed, People: adhocPeople}))
	if err != nil {
		return err
	}
	if err := b.loadXMLCorpus("xmark", xpath); err != nil {
		return err
	}
	for fi, f := range adhocFamilies {
		for _, v := range xqtp.PathVariants("$input", f.steps, f.predStep, f.pred) {
			b.templates = append(b.templates, adhocTemplate{fam: fi, text: v, lits: b.rng.Perm(f.nLits)})
		}
	}
	for t := range b.templates {
		// Warm-up literals are outside every measured literal range.
		f := adhocFamilies[b.templates[t].fam]
		b.warm = append(b.warm, b.adhocRequest(t, f.nLits+t))
	}
	return nil
}

func (b *bench) adhocRequest(t, k int) *request {
	tpl := b.templates[t]
	lit := fmt.Sprintf(adhocFamilies[tpl.fam].lit, k)
	return b.query(fmt.Sprintf("T%02d", t), "xmark", strings.ReplaceAll(tpl.text, "LIT", lit), "ndjson", 0)
}

// nextAdhoc deals the templates in shuffled blocks, each with its next
// unused literal, so no query text repeats within a run.
func nextAdhoc(b *bench, i int) *request {
	ti := b.nextInBlock(len(b.templates))
	t := &b.templates[ti]
	k := t.lits[t.used%len(t.lits)]
	t.used++
	return b.adhocRequest(ti, k)
}

// corpusMember generates member i of the corpus-mixed snapshot: MemBeR
// trees of 300 nodes over 20 tags alternating with 8-person XMark
// documents.
func corpusMember(seed int64, i int, uri string) xqtp.CorpusSource {
	var root *xdm.Node
	if i%2 == 0 {
		root = gen.MemberRoot(gen.MemberConfig{Seed: seed + int64(i), Depth: 4, NumTags: 20, NumNodes: 300})
	} else {
		root = gen.XMarkRoot(gen.XMarkConfig{Seed: seed + int64(i), People: 8})
	}
	return xqtp.CorpusSource{URI: uri, Data: genXML(root)}
}

// corpus-mixed fixed reads, each with its count per block of mixedBlock
// reads: fan-outs that skip half the members by name, the needle, an @id
// lookup in every XMark member, and one fn:collection() form. The rest of
// a block are Zipf reads.
var mixedFixed = []struct {
	name, query string
	perBlock    int
}{
	{"fanout-xmark", `$input//person[emailaddress]/name`, 2},
	{"fanout-member", `$input//t01[t02]`, 2},
	{"needle", `$input//needle/pin`, 2},
	{"lookup", `$input//person[@id = "person3"]/name`, 1},
	{"collection", `fn:collection()//person[emailaddress]/name`, 1},
}

const mixedBlock = 50

func buildCorpusMixed(b *bench) error {
	sources := make([]xqtp.CorpusSource, 0, corpusDocs+1)
	for i := 0; i < corpusDocs; i++ {
		sources = append(sources, corpusMember(b.seed*10000, i, fmt.Sprintf("mem://member-%05d.xml", i)))
	}
	sources = append(sources, xqtp.CorpusSource{URI: "mem://needle.xml", Data: []byte(`<needle><pin note="x">hit</pin></needle>`)})
	path, err := b.saveSnapshot("corpus.snap", sources)
	if err != nil {
		return err
	}
	if err := b.openSnapshotCorpus("main", path); err != nil {
		return err
	}
	// Zipf keys: distinct three-tag twigs over the MemBeR members.
	for _, i := range b.rng.Perm(20 * 20 * 20)[:zipfKeys*2] {
		x, y, z := i/400+1, i/20%20+1, i%20+1
		if x == y || y == z || x == z {
			continue
		}
		if len(b.zipfQueries) < zipfKeys {
			b.zipfQueries = append(b.zipfQueries, fmt.Sprintf("$input//t%02d[t%02d]/t%02d", x, y, z))
		}
	}
	b.zipf = rand.NewZipf(b.rng, 1.5, 1, zipfKeys-1)
	for _, f := range mixedFixed {
		b.warm = append(b.warm, b.query(f.name, "main", f.query, "ndjson", 0))
	}
	for _, q := range b.zipfQueries[:8] {
		b.warm = append(b.warm, b.query("zipf", "main", q, "ndjson", 0))
	}
	return nil
}

func nextCorpusMixed(b *bench, i int) *request {
	if i%extendEvery == extendEvery-1 {
		return b.extendRequest(len(b.batches) + 1)
	}
	k := b.nextInBlock(mixedBlock)
	for _, f := range mixedFixed {
		if k < f.perBlock {
			return b.query(f.name, "main", f.query, "ndjson", 0)
		}
		k -= f.perBlock
	}
	return b.query("zipf", "main", b.zipfQueries[b.zipf.Uint64()], "ndjson", 0)
}

// extendRequest builds extend batch n: extendDocs freshly generated
// members appended to the corpus.
func (b *bench) extendRequest(n int) *request {
	var batch []xqtp.CorpusSource
	docs := make([]map[string]string, 0, extendDocs)
	for j := 0; j < extendDocs; j++ {
		src := corpusMember(b.seed*10000+int64(corpusDocs+n*extendDocs), j, fmt.Sprintf("mem://extend-%03d-%d.xml", n, j))
		docs = append(docs, map[string]string{"uri": src.URI, "xml": string(src.Data)})
		batch = append(batch, src)
	}
	b.batches = append(b.batches, batch)
	body, err := json.Marshal(map[string]any{"corpus": "main", "documents": docs})
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return &request{shape: "extend", corpus: "main", path: "/extend", body: body, batch: n}
}
