package deploy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// EncodeConfig renders the plan as the shared configuration file of
// §5.2: one JSON document dispatched to every host, from which each
// manager applies its local part.
func EncodeConfig(p *Plan) ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// DecodeConfig parses a configuration file. A key the plan does not
// have is an error, not a silently dropped setting.
func DecodeConfig(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	p := &Plan{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("deploy: config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("deploy: config: data after the plan")
	}
	if p.MemoryOf == nil {
		p.MemoryOf = map[string]string{}
	}
	// A key written only when non-empty decodes to nil when empty, so a
	// plan re-encodes to the plan it was decoded from.
	if len(p.Gateways) == 0 {
		p.Gateways = nil
	}
	if len(p.Replicas) == 0 {
		p.Replicas = nil
	}
	for i := range p.Cliques {
		if len(p.Cliques[i].Represents) == 0 {
			p.Cliques[i].Represents = nil
		}
	}
	return p, nil
}

// Summary renders a human-readable view of the plan, shaped like
// Figure 3's caption: the clique list with their roles.
func (p *Plan) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "deployment %s (master %s)\n", p.Label, p.Master)
	fmt.Fprintf(&b, "  name server : %s\n", p.NameServer)
	fmt.Fprintf(&b, "  forecaster  : %s\n", p.Forecaster)
	if len(p.Gateways) > 0 {
		fmt.Fprintf(&b, "  gateway     : %s\n", strings.Join(p.Gateways, ", "))
	}
	fmt.Fprintf(&b, "  memory      : %s\n", strings.Join(p.MemoryServers, ", "))
	for _, c := range p.Cliques {
		kind := "switched/bridge"
		if c.Shared {
			kind = fmt.Sprintf("shared (represents %d hosts)", len(c.Represents))
		}
		fmt.Fprintf(&b, "  clique %-24s [%s] %s\n", c.Name, strings.Join(c.Members, ", "), kind)
	}
	return b.String()
}
