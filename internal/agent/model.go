package agent

import (
	"fmt"

	"loadbalance/internal/kb"
)

// Model implements the two maintenance tasks of the generic agent model:
// maintenance of agent information ("models of other agents, including for
// example, information on how often Customer Agents have positively
// responded to announcements", Section 5.1.4) and maintenance of world
// information (weather, consumption). Both are kb stores so agent knowledge
// stays declarative and inspectable.
//
// The stores are the declarative mirror; the Model answers its own questions
// from typed counters beside them. Peers answer concurrently, so AgentInfo is
// fed in arrival order: reading rates back out of it would cost a scan per
// bid and fold floats in an order that differs from run to run.
type Model struct {
	AgentInfo *kb.Store
	WorldInfo *kb.Store

	responses map[string]responseCount
	overall   responseCount
	world     map[string]float64
}

// responseCount is how often a peer answered, and how often positively.
// Counts are whole numbers held as float64, the type the mirrored fact holds.
type responseCount struct{ positive, total float64 }

// Predicates maintained by the model.
const (
	predResponses = "responses"   // responses(agent, positive, total)
	predWorldVal  = "world_value" // world_value(topic, value)
)

// modelOnt is the maintenance ontology, the same for every agent: built once
// and only read after that.
var modelOnt = mustModelOntology()

func mustModelOntology() *kb.Ontology {
	ont := kb.NewOntology()
	for _, err := range []error{
		ont.DeclareSort("peer", kb.SortAny),
		ont.DeclarePred(predResponses, kb.SortString, kb.SortNumber, kb.SortNumber),
		ont.DeclarePred(predWorldVal, kb.SortString, kb.SortNumber),
	} {
		if err != nil {
			panic(fmt.Sprintf("agent: model ontology: %v", err))
		}
	}
	return ont
}

// NewModel builds an empty model over the maintenance ontology.
func NewModel() *Model {
	return &Model{
		AgentInfo: kb.NewStore(modelOnt),
		WorldInfo: kb.NewStore(modelOnt),
		responses: make(map[string]responseCount),
		world:     make(map[string]float64),
	}
}

// RecordResponse updates the response statistics for a peer: whether it
// answered an announcement positively. This feeds the UA's prediction that
// "normally about 70% of the Customer Agents will respond positively".
func (m *Model) RecordResponse(peer string, positive bool) error {
	c := m.responses[peer]
	m.AgentInfo.Retract(responsesFact(peer, c))
	if positive {
		c.positive++
		m.overall.positive++
	}
	c.total++
	m.overall.total++
	m.responses[peer] = c
	return m.AgentInfo.Assert(responsesFact(peer, c), kb.True)
}

func responsesFact(peer string, c responseCount) kb.Atom {
	return kb.A(predResponses, kb.S(peer), kb.N(c.positive), kb.N(c.total))
}

// ResponseRate returns the observed positive-response rate for a peer and
// whether any observation exists.
func (m *Model) ResponseRate(peer string) (float64, bool) {
	return m.responses[peer].rate()
}

// OverallResponseRate aggregates response statistics over all peers.
func (m *Model) OverallResponseRate() (float64, bool) {
	return m.overall.rate()
}

func (c responseCount) rate() (float64, bool) {
	if c.total == 0 {
		return 0, false
	}
	return c.positive / c.total, true
}

// SetWorldValue records a named observation about the external world
// (e.g. "temperature_c", "predicted_use_kwh").
func (m *Model) SetWorldValue(topic string, value float64) error {
	if old, ok := m.world[topic]; ok {
		m.WorldInfo.Retract(kb.A(predWorldVal, kb.S(topic), kb.N(old)))
	}
	m.world[topic] = value
	return m.WorldInfo.Assert(kb.A(predWorldVal, kb.S(topic), kb.N(value)), kb.True)
}

// WorldValue reads a named world observation.
func (m *Model) WorldValue(topic string) (float64, bool) {
	v, ok := m.world[topic]
	return v, ok
}
