package deploy

import (
	"encoding/json"
	"fmt"
	"strings"
)

// EncodeConfig renders the plan as the shared configuration file of
// §5.2: one JSON document dispatched to every host, from which each
// manager applies its local part.
func EncodeConfig(p *Plan) ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// DecodeConfig parses a configuration file. A document written before
// gateway replication names its one gateway under "gateway"; it decodes
// to the one-element replica set.
func DecodeConfig(data []byte) (*Plan, error) {
	var doc struct {
		Plan
		LegacyGateway string `json:"gateway"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("deploy: config: %w", err)
	}
	p := &doc.Plan
	if p.MemoryOf == nil {
		p.MemoryOf = map[string]string{}
	}
	if len(p.Gateways) == 0 && doc.LegacyGateway != "" {
		p.Gateways = []string{doc.LegacyGateway}
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
