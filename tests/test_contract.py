"""frame.contract against np.einsum, for every contraction the package runs.

The specs are read from the source of statgeo: every string literal passed
to `contract` or `jet_einsum`, plus the gradient specs that `jet_einsum`
derives from the latter.
"""

import ast
import itertools
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

import statgeo
from statgeo import frame
from statgeo.frame import contract

SRC = Path(statgeo.__file__).resolve().parent


def _literal_specs(fn_name: str) -> set[str]:
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == fn_name
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                out.add(node.args[0].value)
    return out


def _grad_specs(spec: str) -> set[str]:
    k = spec.count(",") + 1
    out = set()
    for jets in itertools.product((False, True), repeat=k):
        if any(jets):
            out.update(s for _, s in frame._grad_specs(spec, jets))
    return out


JET_SPECS = _literal_specs("jet_einsum")
SPECS = sorted(
    _literal_specs("contract") | JET_SPECS | set().union(*map(_grad_specs, JET_SPECS))
)


def close(got, want) -> bool:
    """Equal shapes and entries within 1e-13 of the largest entry (or of 1)."""
    if got.shape != want.shape:
        return False
    scale = max(1.0, np.max(np.abs(want), initial=0.0))
    return np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale


def operands(spec, rng, sizes, leads):
    """Random operands of spec: tensor letter c has size sizes[c], and
    operand p has leading shape leads[p] where its subscript has `...`."""
    ins = spec.split("->")[0].split(",")
    return [
        rng.standard_normal(
            (leads[p] if "..." in t else ()) + tuple(sizes[c] for c in t.replace("...", ""))
        )
        for p, t in enumerate(ins)
    ]


def lead_cases(k: int):
    yield "unbatched", [()] * k
    yield "one point", [(1,)] * k
    yield "batch", [(7,)] * k
    yield "first shared", [()] + [(7,)] * (k - 1)
    yield "last size 1", [(7,)] * (k - 1) + [(1,)]


def test_the_specs_were_found():
    # the package's contractions, and the jet gradients of LeviCivita & co.
    assert len(SPECS) >= 60
    assert "...ijm,...ml->...ijl" in JET_SPECS
    assert "...ui,...ijkl,...lm,...um->...jk" in SPECS


@pytest.mark.parametrize("spec", SPECS)
def test_contract_matches_einsum(spec):
    rng = np.random.default_rng(zlib.crc32(spec.encode()))
    letters = sorted(set(spec) - set(".,->"))
    size_cases = [{c: n for c in letters} for n in (2, 3, 4, 5)]
    size_cases.append({c: 2 + k % 4 for k, c in enumerate(letters)})
    k = spec.count(",") + 1
    for sizes in size_cases:
        for label, leads in lead_cases(k):
            ops = operands(spec, rng, sizes, leads)
            want = np.einsum(spec, *ops)
            got = contract(spec, *ops)
            assert close(got, want), (spec, sizes, label)
            assert close(contract(spec, *ops), want), "replaying the cached plan"


@pytest.mark.parametrize("spec", ["...i,...j,...k->...ijk", "...i,...jk,...l,...m->...mijlk"])
def test_outer_products_of_many_operands(spec):
    # np.einsum_path leaves these to einsum as one step; contract pairs them
    rng = np.random.default_rng(1)
    for label, leads in lead_cases(spec.count(",") + 1):
        ops = operands(spec, rng, {c: 2 + k for k, c in enumerate("ijklm")}, leads)
        assert close(contract(spec, *ops), np.einsum(spec, *ops)), label


def test_comparison_sees_swapped_output_letters():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 7, 3, 3))
    want = np.einsum("...ij,...jk->...ik", a, b)
    assert close(contract("...ij,...jk->...ik", a, b), want)
    assert not close(contract("...ij,...jk->...ki", a, b), want)


@pytest.mark.parametrize(
    "spec,shapes,fragment",
    [
        ("...ii,...i->...", [(3, 3), (3,)], "repeated subscript"),
        ("...ij,...j->...", [(3, 3), (3,)], "within one operand"),
        ("...ij->...ji", [(3, 3)], "at least 2"),
        ("...ij,...jk", [(3, 3), (3, 3)], "explicit output"),
        ("...ij,...jk->...ik", [(3, 3), (4, 3)], "sizes"),
        ("...ij,...jk->...ik", [(2, 3, 3), (3, 3, 3)], "sizes"),
        ("ij,jk->ik", [(2, 3, 3), (3, 3)], "does not fit"),
    ],
)
def test_contract_rejects_what_it_cannot_plan(spec, shapes, fragment):
    with pytest.raises(ValueError, match=fragment):
        contract(spec, *(np.ones(s) for s in shapes))


def test_no_einsum_call_in_the_package():
    # every contraction takes the one planned path through frame.contract
    found = []
    for path in SRC.glob("*.py"):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "einsum":
                    found.append(f"{path.name}:{node.lineno}")
        if re.search(r"from\s+numpy\S*\s+import[^\n]*\beinsum\b", text):
            found.append(f"{path.name}: imports einsum")
    assert found == []
