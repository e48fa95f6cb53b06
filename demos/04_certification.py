"""End-to-end stability certification.

Certifies the three-mode planar benchmark twice: once verifying the
reference candidate, once searching for basis matrices from scratch.
The certificate text is self-contained; re-verification re-parses it
and recomputes every margin.
"""

from maxminlyap import fixtures
from maxminlyap.certifier import SearchOptions, certify, search_condition_i
from maxminlyap.certreport import re_verify, serialize_certificate
from maxminlyap.policy import NumericPolicy

policy = NumericPolicy()
sysm, spec, _ = fixtures.example("example1")

print("== verification of the reference candidate ==")
cert = certify(sysm, spec, fixtures.example1_candidate(), policy)
for g, m in zip(cert.cond_i.groups, cert.cond_i.margins):
    print(f"  mode {g.mode}, orderings {g.perms}: margin {m:+.6f}")
for e in cert.cond_ii.entries:
    print(f"  switching line {e.position}: equalizing weights {e.lam_kind}")
print(f"  verdict: {cert.verdict}")

report = serialize_certificate(cert, sysm)
fresh, stored, agree = re_verify(report)
print(f"  re-verification from the report text agrees: {agree}\n")

print("== search from scratch (no candidate supplied) ==")
result = search_condition_i(sysm, spec, policy, SearchOptions(time_budget=55.0))
if result.found:
    print(f"  found in {result.elapsed:.2f}s after {result.rounds} rounds")
    for k, P in enumerate(result.candidate.matrices, start=1):
        print(f"  P{k} =\n{P.round(4)}")
    print(f"  checker margins: {[round(m, 6) for m in result.report.margins]}")
    full = certify(sysm, spec, result.candidate, policy)
    print(f"  full verdict with the searched candidate: {full.verdict}")
else:
    print(f"  search failed: {result.message}")
