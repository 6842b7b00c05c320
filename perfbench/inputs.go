package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/export"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/workload"
)

// request is one pre-encoded HTTP request: the schema name it concerns
// (the PUT/DELETE path, or a probe's incoming name) and its JSON body.
// Bodies are encoded while the inputs are generated, so a timed request
// measures the service, not the benchmark's own encoding.
type request struct {
	name string
	body []byte // nil for DELETE
}

// writeOp is one request of the corpus-churn writer.
type writeOp struct {
	del bool
	request
}

// spec is one workload's generated input. Everything in it derives from
// the workload seed; the service under test only ever sees these bodies.
type spec struct {
	// store is the initial store, PUT in this order during set-up.
	store []request
	// probes is one pass of the reader's inline TopK matches; every
	// pass replays the same sequence.
	probes []request
	// writes is the writer's pass (corpus-churn only): opsPerProbe writes
	// run beside each probe, and the writer checkpoints after every
	// checkpointEvery writes.
	writes          []writeOp
	opsPerProbe     int
	checkpointEvery int
	// params lists every workload parameter for the run metadata.
	params []param
}

type param struct {
	key   string
	value any
}

const (
	shards = 4
	// corpusSize is the stored corpus of corpus-churn: 16 evolution
	// families of corpusFamily revisions each.
	corpusSize   = 256
	corpusFamily = 16
	corpusTopK   = 10
	paperStore   = 16
	paperTopK    = 3
)

var workloads = map[string]func(seed int64) (*spec, error){
	"paper-topk":   paperSpec,
	"corpus-churn": corpusChurnSpec,
}

// putRequest encodes PUT /schemas/{name} carrying the XSD document src.
func putRequest(name, src string) (request, error) {
	body, err := json.Marshal(server.SchemaPayload{Name: name, Format: "xsd", Source: src})
	return request{name: name, body: body}, err
}

// matchRequest encodes an inline-XSD TopK POST /match.
func matchRequest(name, src string, topK int) (request, error) {
	body, err := json.Marshal(server.MatchRequest{
		Schema: server.SchemaPayload{Name: name, Format: "xsd", Source: src},
		TopK:   topK,
	})
	return request{name: name, body: body}, err
}

// exportXSD serializes a schema graph the way coma.Client.PutSchemaGraph
// ships it. The exporter models every inner element as a named complex
// type, which the importer reads back as an extra path level.
func exportXSD(s *schema.Schema) (string, error) {
	var buf bytes.Buffer
	if err := export.SchemaXSD(&buf, s); err != nil {
		return "", fmt.Errorf("export %s: %w", s.Name, err)
	}
	return buf.String(), nil
}

// treeXSD serializes a tree-shaped schema with anonymous complex types,
// which the importer reads back path for path. The corpus workloads use
// it because the extra type-name level of exportXSD gives every corpus
// schema near-identical candidate bounds, so almost nothing is pruned.
func treeXSD(s *schema.Schema) string {
	var b strings.Builder
	b.WriteString(`<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">` + "\n")
	var element func(n *schema.Node)
	element = func(n *schema.Node) {
		if n.IsLeaf() {
			fmt.Fprintf(&b, "<xsd:element name=%q type=%q/>\n", n.Name, n.TypeName)
			return
		}
		fmt.Fprintf(&b, "<xsd:element name=%q><xsd:complexType><xsd:sequence>\n", n.Name)
		for _, c := range n.Children() {
			element(c)
		}
		b.WriteString("</xsd:sequence></xsd:complexType></xsd:element>\n")
	}
	for _, c := range s.Root.Children() {
		element(c)
	}
	b.WriteString("</xsd:schema>\n")
	return b.String()
}

// paperSpec: the store is workload.Candidates(16), all twins of the five
// purchase-order schemas, so no candidate can be pruned; the client
// sends its workload.Clients stream in a seeded order.
func paperSpec(seed int64) (*spec, error) {
	w := &spec{}
	for _, s := range workload.Candidates(paperStore) {
		src, err := exportXSD(s)
		if err != nil {
			return nil, err
		}
		r, err := putRequest(s.Name, src)
		if err != nil {
			return nil, err
		}
		w.store = append(w.store, r)
	}
	stream := workload.Clients(1)[0]
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(stream)) {
		src, err := exportXSD(stream[i])
		if err != nil {
			return nil, err
		}
		r, err := matchRequest(stream[i].Name, src, paperTopK)
		if err != nil {
			return nil, err
		}
		w.probes = append(w.probes, r)
	}
	w.params = []param{
		{"store_schemas", paperStore}, {"clients", 1}, {"top_k", paperTopK},
		{"probes_per_pass", len(w.probes)},
	}
	return w, nil
}

// The corpus data sets are fixed; the workload seed orders the probes and
// picks the writer's revisions. Per-probe cost follows how many
// candidates survive pruning, which varies fourfold between families and
// shifts the pass median by up to 40% between corpus seeds, so a
// seed-drawn corpus would hide any change below that.
const (
	corpusSeed = 1
	writerSeed = 2
	freshSeed  = 3
	// writerFamilies is the size of the churn writer's own region of
	// the store, in families.
	writerFamilies = 2
)

// corpusStore returns the PUTs of the stored corpus and one probe per
// family, in the given order: the next revision of the family, which
// workload.CorpusPair yields as the incoming schema of the corpus prefix
// ending with that family.
func corpusStore(order []int) (store, probes []request, err error) {
	stored, _ := workload.CorpusPair(corpusSize, corpusSeed)
	for _, s := range stored {
		r, err := putRequest(s.Name, treeXSD(s))
		if err != nil {
			return nil, nil, err
		}
		store = append(store, r)
	}
	for _, f := range order {
		_, p := workload.CorpusPair(corpusFamily*(f+1), corpusSeed)
		r, err := matchRequest(p.Name, treeXSD(p), corpusTopK)
		if err != nil {
			return nil, nil, err
		}
		probes = append(probes, r)
	}
	return store, probes, nil
}

// corpusChurnSpec: one reader probes every family of the corpus once per
// pass, in a seeded order, beside a writer that owns a region of the
// store — families of another corpus, stored as
// "w-<family>-<revision>". Beside each probe the writer sends two
// requests: a PUT that replaces a seeded revision of its region with the
// content of the next revision, then either a PUT of a new schema
// "new-<k>" from a third corpus or a DELETE of one added earlier in the
// pass. Each pass therefore ends in the same store. The writer's region
// shares no family with the probes, so every probe has one right
// ranking: the exhaustive scan of the final store.
func corpusChurnSpec(seed int64) (*spec, error) {
	rng := rand.New(rand.NewSource(seed))
	store, probes, err := corpusStore(rng.Perm(corpusSize / corpusFamily))
	if err != nil {
		return nil, err
	}
	region, _ := workload.CorpusPair(writerFamilies*corpusFamily, writerSeed)
	regionName := func(i int) string {
		return fmt.Sprintf("w-%d-%d", i/corpusFamily, i%corpusFamily)
	}
	for i, s := range region {
		r, err := putRequest(regionName(i), treeXSD(s))
		if err != nil {
			return nil, err
		}
		store = append(store, r)
	}
	fresh, _ := workload.CorpusPair(corpusFamily, freshSeed)
	const opsPerProbe = 2
	half := len(probes) / 2
	var writes []writeOp
	for j := range probes {
		// A revision that has a successor in its family.
		i := rng.Intn(len(region))
		if i%corpusFamily == corpusFamily-1 {
			i--
		}
		rep, err := putRequest(regionName(i), treeXSD(region[i+1]))
		if err != nil {
			return nil, err
		}
		writes = append(writes, writeOp{request: rep})
		if j < half {
			add, err := putRequest(fmt.Sprintf("new-%d", j), treeXSD(fresh[j]))
			if err != nil {
				return nil, err
			}
			writes = append(writes, writeOp{request: add})
		} else {
			writes = append(writes, writeOp{del: true, request: request{name: fmt.Sprintf("new-%d", j-half)}})
		}
	}
	return &spec{
		store: store, probes: probes,
		writes: writes, opsPerProbe: opsPerProbe, checkpointEvery: 8,
		params: []param{
			{"store_schemas", len(store)}, {"families", corpusSize / corpusFamily},
			{"writer_families", writerFamilies}, {"corpus_seed", corpusSeed},
			{"clients", 2}, {"top_k", corpusTopK}, {"probes_per_pass", len(probes)},
			{"writes_per_pass", len(writes)}, {"writes_per_probe", opsPerProbe},
			{"checkpoint_every_writes", 8},
		},
	}, nil
}
