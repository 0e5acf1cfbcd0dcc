// Package vif is a Go implementation of VIF — Verifiable In-network
// Filtering — from "Practical Verifiable In-network Filtering for DDoS
// Defense" (ICDCS 2019).
//
// VIF lets a DDoS victim install traffic filters at an upstream transit
// network (ideally a large IXP) *without trusting that network*:
//
//   - filters execute inside attested SGX enclaves, so the victim can
//     verify exactly which filter code runs (package internal/attest);
//   - the filter decision is a stateless function of the packet bits, so
//     the untrusted operator cannot steer verdicts through timing, order,
//     or injection (package internal/filter);
//   - count-min-sketch packet logs computed inside the enclaves let the
//     victim and the operator's neighbor ASes detect traffic dropped or
//     injected around the filters (package internal/bypass);
//   - capacity scales by parallelizing enclaves behind an untrusted load
//     balancer, with rule placement computed by the paper's greedy
//     algorithm (packages internal/dist, internal/lb, internal/cluster).
//
// This package is the public facade: Deployment is the filtering service
// a transit network operates, Session is one victim's attested filtering
// contract with it. The example programs under examples/ walk through the
// full workflow, and cmd/vif-experiments regenerates every table and
// figure of the paper's evaluation.
package vif

import (
	"github.com/innetworkfiltering/vif/internal/bgp"
	"github.com/innetworkfiltering/vif/internal/enclave"
	"github.com/innetworkfiltering/vif/internal/filter"
	"github.com/innetworkfiltering/vif/internal/packet"
	"github.com/innetworkfiltering/vif/internal/rules"
)

// Re-exported core types: the vocabulary of the public API.
type (
	// Rule is one filter rule (see ParseRule for the textual form).
	Rule = rules.Rule
	// RuleSet is an ordered, first-match-wins rule list.
	RuleSet = rules.Set
	// FiveTuple identifies a transport flow.
	FiveTuple = packet.FiveTuple
	// Descriptor is a parsed packet summary on the data plane.
	Descriptor = packet.Descriptor
	// Verdict is a per-packet filtering decision.
	Verdict = filter.Verdict
	// ASN is an autonomous system number.
	ASN = bgp.ASN
	// CodeIdentity names the enclave binary victims pin via attestation.
	CodeIdentity = enclave.CodeIdentity
)

// Verdicts.
const (
	VerdictAllow = filter.VerdictAllow
	VerdictDrop  = filter.VerdictDrop
)

// ParseRule parses the textual rule form, e.g.
//
//	drop udp from 10.0.0.0/8 to 192.0.2.0/24 dport 53
//	drop 50% tcp from any to 192.0.2.0/24 dport 80
func ParseRule(s string) (Rule, error) { return rules.Parse(s) }

// NewRuleSet builds a validated rule set. defaultAllow is the fate of
// traffic matching no rule (VIF defaults to allowing it: a filtering
// request only ever removes traffic the victim named).
func NewRuleSet(rs []Rule, defaultAllow bool) (*RuleSet, error) {
	return rules.NewSet(rs, defaultAllow)
}

// FilterIdentity is the reference code identity of this repository's
// filter implementation. Victims pin its Measurement; any change to the
// filter's security-relevant behavior must bump Version.
func FilterIdentity() CodeIdentity {
	return enclave.CodeIdentity{
		Name:       "vif-filter",
		Version:    "1.0.0",
		Config:     "sketch=2x65536;hash=sha256",
		BinarySize: 1 << 20,
	}
}
