// Package gridml implements the GridML dialect of XML that ENV uses to
// store mapping results (§4 of the paper: "a specialized form of XML
// called GridML, which constitutes a flexible format for describing the
// physical and observable characteristics of resources and networks
// constituting a Grid").
//
// The schema implemented here is the subset exercised by the paper's
// listings: GRID > SITE > MACHINE with LABEL/ALIAS/PROPERTY elements, and
// GRID > NETWORK trees (types "Structural", "ENV_Shared", "ENV_Switched",
// "ENV_Unknown") whose MACHINE children reference machines by name.
// The package also implements the firewall-merge operation of §4.3:
// concatenating the sites of two documents and cross-aliasing the gateway
// machines that appear on both sides.
package gridml

import (
	"encoding/xml"
	"fmt"
	"strings"
)

// Network type strings produced by the ENV mapper.
const (
	TypeStructural = "Structural"
	TypeShared     = "ENV_Shared"
	TypeSwitched   = "ENV_Switched"
	TypeUnknown    = "ENV_Unknown"
)

// Property names used by ENV results.
const (
	PropBaseBW      = "ENV_base_BW"
	PropBaseLocalBW = "ENV_base_local_BW"
)

// Document is a GRID element: the root of a GridML file.
type Document struct {
	XMLName  xml.Name   `xml:"GRID"`
	Label    *Label     `xml:"LABEL,omitempty"`
	Sites    []*Site    `xml:"SITE"`
	Networks []*Network `xml:"NETWORK"`
}

// Site groups the machines of one DNS domain.
type Site struct {
	Domain   string     `xml:"domain,attr"`
	Label    *Label     `xml:"LABEL,omitempty"`
	Machines []*Machine `xml:"MACHINE"`
}

// Machine describes one host. Inside a SITE it carries a full LABEL
// (IP, canonical name, aliases) and PROPERTY list; inside a NETWORK it is
// a name-only reference.
type Machine struct {
	Name       string     `xml:"name,attr,omitempty"`
	Label      *Label     `xml:"LABEL,omitempty"`
	Properties []Property `xml:"PROPERTY,omitempty"`
}

// Label carries the ip/name attributes plus machine aliases.
type Label struct {
	IP      string  `xml:"ip,attr,omitempty"`
	Name    string  `xml:"name,attr,omitempty"`
	Aliases []Alias `xml:"ALIAS,omitempty"`
}

// Alias is an alternative name for a machine (gateways have one per side
// of a firewall).
type Alias struct {
	Name string `xml:"name,attr"`
}

// Property is a typed key/value annotation.
type Property struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
	Units string `xml:"units,attr,omitempty"`
}

// Network is a (possibly nested) network description. Structural networks
// come from the traceroute phase; ENV_* networks carry the master-dependent
// classification.
type Network struct {
	Type       string     `xml:"type,attr,omitempty"`
	Label      *Label     `xml:"LABEL,omitempty"`
	Properties []Property `xml:"PROPERTY,omitempty"`
	Machines   []*Machine `xml:"MACHINE,omitempty"`
	Networks   []*Network `xml:"NETWORK,omitempty"`
}

// CanonicalName returns the machine's primary name.
func (m *Machine) CanonicalName() string {
	if m.Label != nil && m.Label.Name != "" {
		return m.Label.Name
	}
	return m.Name
}

// HasName reports whether name matches the machine's canonical name or
// any alias.
func (m *Machine) HasName(name string) bool {
	if m.CanonicalName() == name || m.Name == name {
		return true
	}
	if m.Label != nil {
		for _, a := range m.Label.Aliases {
			if a.Name == name {
				return true
			}
		}
	}
	return false
}

// AddAlias records an additional name, skipping duplicates.
func (m *Machine) AddAlias(name string) {
	if name == "" || m.HasName(name) {
		return
	}
	if m.Label == nil {
		m.Label = &Label{Name: m.Name}
	}
	m.Label.Aliases = append(m.Label.Aliases, Alias{Name: name})
}

// Property returns the value of the named property on the machine.
func (m *Machine) Property(name string) (string, bool) {
	for _, p := range m.Properties {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// Property returns the value of the named property on the network.
func (n *Network) Property(name string) (string, bool) {
	for _, p := range n.Properties {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// Name returns the network's label name, or "" when unlabeled.
func (n *Network) Name() string {
	if n.Label == nil {
		return ""
	}
	if n.Label.Name != "" {
		return n.Label.Name
	}
	return n.Label.IP
}

// MachineNames returns the referenced machine names in order.
func (n *Network) MachineNames() []string {
	out := make([]string, 0, len(n.Machines))
	for _, m := range n.Machines {
		out = append(out, m.CanonicalName())
	}
	return out
}

// Walk visits n and every descendant network, depth-first.
func (n *Network) Walk(visit func(*Network)) {
	visit(n)
	for _, c := range n.Networks {
		c.Walk(visit)
	}
}

// FindMachine locates a machine by canonical name or alias across all
// sites.
func (d *Document) FindMachine(name string) *Machine {
	for _, s := range d.Sites {
		for _, m := range s.Machines {
			if m.HasName(name) {
				return m
			}
		}
	}
	return nil
}

// MachineNames returns every canonical machine name across all sites.
func (d *Document) MachineNames() []string {
	var out []string
	for _, s := range d.Sites {
		for _, m := range s.Machines {
			out = append(out, m.CanonicalName())
		}
	}
	return out
}

// WalkNetworks visits every network in the document depth-first.
func (d *Document) WalkNetworks(visit func(*Network)) {
	for _, n := range d.Networks {
		n.Walk(visit)
	}
}

// Validate checks that every machine referenced from a network exists in
// some site.
func (d *Document) Validate() error {
	var err error
	d.WalkNetworks(func(n *Network) {
		for _, m := range n.Machines {
			if d.FindMachine(m.CanonicalName()) == nil && err == nil {
				err = fmt.Errorf("gridml: network %q references unknown machine %q", n.Name(), m.CanonicalName())
			}
		}
	})
	return err
}

// Encode renders the document as indented XML with the standard header.
func (d *Document) Encode() ([]byte, error) {
	body, err := xml.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), append(body, '\n')...), nil
}

// Decode parses a GridML document.
func Decode(data []byte) (*Document, error) {
	var d Document
	if err := xml.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("gridml: %w", err)
	}
	// Encode writes the root without a namespace, so Decode drops the
	// one it read: a document re-encodes to the one it was decoded from.
	d.XMLName = xml.Name{}
	return &d, nil
}

// GatewayAlias declares that one physical machine is known under a
// different name on each side of a firewall (§4.3: e.g.
// "popc.ens-lyon.fr" outside is "popc0.popc.private" inside).
type GatewayAlias struct {
	Outside, Inside string
}

// Merge combines the mapping results of two firewall sides into one
// document, as described in §4.3: a new GRID containing both sets of
// sites is created, and the gateway machines named by aliases gain the
// alias list of their other-side twin. Networks from both documents are
// concatenated. The input documents are not modified.
func Merge(label string, outside, inside *Document, aliases []GatewayAlias) (*Document, error) {
	out := &Document{Label: &Label{Name: label}}
	// Fold sites by domain and machines by (already known) name, so
	// merging a run that re-maps part of an earlier run — the §4.3
	// piecewise-mapping workflow — does not duplicate entries: a machine
	// any of whose names is already present contributes its aliases and
	// properties to the existing entry instead.
	addDoc := func(d *Document) {
		for _, s := range cloneSites(d.Sites) {
			var target *Site
			for _, have := range out.Sites {
				if have.Domain == s.Domain {
					target = have
					break
				}
			}
			if target == nil {
				target = &Site{Domain: s.Domain, Label: s.Label}
				out.Sites = append(out.Sites, target)
			}
			for _, m := range s.Machines {
				if have := out.FindMachine(m.CanonicalName()); have != nil {
					have.AddAlias(m.CanonicalName())
					if m.Label != nil {
						for _, a := range m.Label.Aliases {
							have.AddAlias(a.Name)
						}
					}
					for _, p := range m.Properties {
						if _, dup := have.Property(p.Name); !dup {
							have.Properties = append(have.Properties, p)
						}
					}
					continue
				}
				target.Machines = append(target.Machines, m)
			}
		}
		out.Networks = append(out.Networks, cloneNetworks(d.Networks)...)
	}
	addDoc(outside)
	addDoc(inside)

	for _, ga := range aliases {
		mo := out.FindMachine(ga.Outside)
		mi := out.FindMachine(ga.Inside)
		if mo == nil {
			return nil, fmt.Errorf("gridml: merge: outside gateway %q not found", ga.Outside)
		}
		if mi == nil {
			return nil, fmt.Errorf("gridml: merge: inside gateway %q not found", ga.Inside)
		}
		if mo == mi {
			continue
		}
		// Exchange full name sets.
		mo.AddAlias(ga.Inside)
		mi.AddAlias(ga.Outside)
		if mi.Label != nil {
			for _, a := range mi.Label.Aliases {
				mo.AddAlias(a.Name)
			}
		}
		if mo.Label != nil {
			for _, a := range mo.Label.Aliases {
				mi.AddAlias(a.Name)
			}
		}
	}
	return out, nil
}

func cloneSites(in []*Site) []*Site {
	out := make([]*Site, 0, len(in))
	for _, s := range in {
		cs := &Site{Domain: s.Domain}
		if s.Label != nil {
			l := *s.Label
			l.Aliases = append([]Alias(nil), s.Label.Aliases...)
			cs.Label = &l
		}
		for _, m := range s.Machines {
			cs.Machines = append(cs.Machines, cloneMachine(m))
		}
		out = append(out, cs)
	}
	return out
}

func cloneMachine(m *Machine) *Machine {
	cm := &Machine{Name: m.Name}
	if m.Label != nil {
		l := *m.Label
		l.Aliases = append([]Alias(nil), m.Label.Aliases...)
		cm.Label = &l
	}
	cm.Properties = append([]Property(nil), m.Properties...)
	return cm
}

func cloneNetworks(in []*Network) []*Network {
	out := make([]*Network, 0, len(in))
	for _, n := range in {
		cn := &Network{Type: n.Type}
		if n.Label != nil {
			l := *n.Label
			cn.Label = &l
		}
		cn.Properties = append([]Property(nil), n.Properties...)
		for _, m := range n.Machines {
			cn.Machines = append(cn.Machines, cloneMachine(m))
		}
		cn.Networks = cloneNetworks(n.Networks)
		out = append(out, cn)
	}
	return out
}

// SiteFor returns the document's site with the given domain, creating it
// if needed.
func (d *Document) SiteFor(domain string) *Site {
	for _, s := range d.Sites {
		if s.Domain == domain {
			return s
		}
	}
	s := &Site{
		Domain: domain,
		Label:  &Label{Name: strings.ToUpper(strings.ReplaceAll(domain, ".", "-"))},
	}
	d.Sites = append(d.Sites, s)
	return s
}
