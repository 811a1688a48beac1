package agent

// Model implements the two maintenance tasks of the generic agent model:
// maintenance of agent information ("models of other agents, including for
// example, information on how often Customer Agents have positively
// responded to announcements", Section 5.1.4) and maintenance of world
// information (weather, consumption). It is typed counters and values: the
// declarative form of the same knowledge is the reference specification in
// internal/kb, which no agent links.
//
// The zero value is an empty model. A Model belongs to the agent that holds
// it and is used from that agent's goroutine only. Today that is the Utility
// Agent alone, and a Utility Agent lives for one session: its model starts
// empty, so what it records about its peers informs nothing after the
// session ends.
type Model struct {
	responses map[string]responseCount
	overall   responseCount
	world     map[string]float64
}

// responseCount is how often a peer answered, and how often positively.
type responseCount struct{ positive, total int }

// NewModel returns an empty model with room for the response statistics of
// the given number of peers, so recording that many costs no allocation.
func NewModel(peers int) *Model {
	return &Model{responses: make(map[string]responseCount, peers)}
}

// RecordResponse updates the response statistics for a peer: whether it
// answered an announcement positively. This feeds the UA's prediction that
// "normally about 70% of the Customer Agents will respond positively".
func (m *Model) RecordResponse(peer string, positive bool) {
	if m.responses == nil {
		m.responses = make(map[string]responseCount)
	}
	c := m.responses[peer]
	if positive {
		c.positive++
		m.overall.positive++
	}
	c.total++
	m.overall.total++
	m.responses[peer] = c
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
	return float64(c.positive) / float64(c.total), true
}

// SetWorldValue records a named observation about the external world
// (e.g. "temperature_c", "predicted_use_kwh"), replacing any earlier one.
func (m *Model) SetWorldValue(topic string, value float64) {
	if m.world == nil {
		m.world = make(map[string]float64)
	}
	m.world[topic] = value
}

// WorldValue reads a named world observation.
func (m *Model) WorldValue(topic string) (float64, bool) {
	v, ok := m.world[topic]
	return v, ok
}
