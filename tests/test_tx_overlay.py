"""Each transaction's writes reach the provable store once, through one path.

``GaiaApp.deliver_tx`` cache-wraps the store for each transaction: writes
go to an overlay that is merged on success and dropped on failure, and the
bank mirrors each balance it touched once, at its final value.  These tests
pin the write counts of a Hermes ``ft-transfer --number-msgs`` transaction
and guard that the overlay stays the store's only transaction mechanism,
and that the journal (cosmos/journal.py) is the only code that records
undo entries.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from collections import Counter
from pathlib import Path

from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM
from repro.cosmos.journal import Journal
from repro.ibc import packet as packet_module
from repro.ibc.msgs import MsgTransfer
from repro.ibc.packet import Height
from repro.ibc.transfer import escrow_address
from repro.tendermint.merkle import ProvableStore

from tests.ibc_harness import IbcPair

SRC = Path(__file__).resolve().parents[1] / "src"

_OVERLAY_METHODS = {"open_overlay", "merge_overlay", "drop_overlay"}
_JOURNAL_MODULE = "repro.cosmos.journal"


def _record_methods() -> frozenset[str]:
    """The journal's write methods: every public method whose body appends
    an undo entry, found by reading the class, so a renamed or added
    method is covered without editing this file."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(Journal)))
    return frozenset(
        method.name
        for method in tree.body[0].body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and any(
            isinstance(node, ast.Call) and _method_name(node) == "append"
            for node in ast.walk(method)
        )
    )


def test_number_msgs_transfer_writes_each_key_once(monkeypatch):
    """100 references to one ``MsgTransfer`` (how the CLI repeats one)
    write the sender's and the escrow's balance once each (and the fee's,
    charged before the messages run, once), each packet
    commitment once, and hash one commitment for all 100 packets."""
    pair = IbcPair()
    app, user = pair.a.app, pair.user
    sender = user.wallet.address
    msg = MsgTransfer(
        source_port="transfer",
        source_channel=pair.chan_a,
        denom=TRANSFER_DENOM,
        amount=3,
        sender=sender,
        receiver=pair.receiver.address,
        timeout_height=Height(0, pair.b.height + 100),
        signer=sender,
    )
    tx = user.build([msg] * 100, gas_limit=10**9)
    escrow = escrow_address("transfer", pair.chan_a)
    before = app.bank.balance(sender, TRANSFER_DENOM)

    writes: Counter = Counter()
    store_set = app.store.set

    def counting_set(key, value):
        writes[key] += 1
        store_set(key, value)

    monkeypatch.setattr(app.store, "set", counting_set)
    hashes = []
    real_sha256 = packet_module.sha256

    def counting_sha256(data):
        hashes.append(data)
        return real_sha256(data)

    monkeypatch.setattr(packet_module, "sha256", counting_sha256)
    packet_module.reset_caches()
    result = app.deliver_tx(tx)
    monkeypatch.undo()

    assert result.ok, result.log
    sent = [e.packet for e in result.events if e.type == "send_packet"]
    assert len({p.sequence for p in sent}) == 100
    balance_keys = {k for k in writes if k.startswith(b"balances/")}
    assert balance_keys == {
        f"balances/{sender}/{FEE_DENOM}".encode(),  # the fee, before the tx
        f"balances/{sender}/{TRANSFER_DENOM}".encode(),
        f"balances/{escrow}/{TRANSFER_DENOM}".encode(),
    }
    assert set(writes.values()) == {1}
    assert len(writes) == 3 + 100  # the balances and one commitment per packet
    assert len(hashes) == 2  # the data hash and the commitment, once
    assert len({p.commitment() for p in sent}) == 1
    # The one write per key carries the final value.
    assert app.store.get(
        f"balances/{sender}/{TRANSFER_DENOM}".encode()
    ) == str(before - 300).encode()
    assert app.bank.balance(escrow, TRANSFER_DENOM) == 300


# -- guards: the overlay is the store's only transaction mechanism --------------


def test_provable_store_has_no_journal():
    assert not hasattr(ProvableStore(), "journal")
    assert "journal" not in ProvableStore.__dict__


def _calls_in_functions(tree: ast.Module):
    """``(qualified function name, Call)`` for every call in a function."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, [*scope, child.name])
            else:
                if isinstance(child, ast.Call):
                    yield ".".join(scope), child
                yield from visit(child, scope)

    yield from visit(tree, [])


def _source_calls():
    """``(module, function, Call)`` for every call under ``src/repro``."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(), str(path))
        for function, call in _calls_in_functions(tree):
            yield module, function, call


def _method_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else ""


def _journals_a_store(call: ast.Call) -> bool:
    """A journal write whose target is a store or a store's data dict."""
    if _method_name(call) not in _record_methods() or not call.args:
        return False
    if "journal" not in ast.unparse(call.func.value):
        return False  # ``set.add``, ``dict.pop``: not a journal write
    mapping = ast.unparse(call.args[0])
    return "store" in mapping or "_data" in mapping


def _appends_undo(module: str, tree: ast.AST) -> list[str]:
    """Where a module other than the journal touches an undo log: the
    journal's private list, or an ``append`` onto anything named undo."""
    if module == _JOURNAL_MODULE:
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_undo":
            found.append(ast.unparse(node))
        elif (
            isinstance(node, ast.Call)
            and _method_name(node) == "append"
            and "undo" in ast.unparse(node.func.value).lower()
        ):
            found.append(ast.unparse(node))
    return [f"{module}: {spelling}" for spelling in found]


def _overlay_offenders(calls) -> list[str]:
    return [
        f"{module}:{function}.{_method_name(call)}"
        for module, function, call in calls
        if _method_name(call) in _OVERLAY_METHODS
        and (module, function) != ("repro.cosmos.app", "GaiaApp.deliver_tx")
    ]


def test_record_methods_are_found():
    assert {"add", "put", "pop", "assign"} <= _record_methods()
    assert not {"begin", "commit", "rollback"} & _record_methods()


def test_no_store_mapping_is_journaled():
    offenders = [
        f"{module}:{function}: {ast.unparse(call)}"
        for module, function, call in _source_calls()
        if _journals_a_store(call)
    ]
    assert offenders == []


def test_only_the_journal_appends_undo_entries():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        offenders += _appends_undo(module, ast.parse(path.read_text(), str(path)))
    assert offenders == []


def test_only_deliver_tx_opens_merges_or_drops_the_overlay():
    calls = list(_source_calls())
    assert _overlay_offenders(calls) == []
    used = {
        _method_name(call)
        for module, function, call in calls
        if (module, function) == ("repro.cosmos.app", "GaiaApp.deliver_tx")
    }
    assert _OVERLAY_METHODS <= used


def test_guards_recognise_the_forbidden_spellings():
    writes = "".join(
        f"        self.journal.{name}(self.store._data, k, v)\n"
        f"        journal.{name}(self._data, k, v)\n"
        f"        journal.{name}(self._commitments, k, v)\n"
        f"        self.stores.{name}(store, k, v)\n"
        for name in sorted(_record_methods())
    )
    tree = ast.parse(
        "class Keeper:\n"
        "    def write(self):\n"
        + writes
        + "        self.store.open_overlay()\n"
        "        self.journal._undo.append((setitem, m, k, v))\n"
        "        undo_log.append(entry)\n"
        "def helper(store):\n"
        "    store.merge_overlay()\n"
        "    store.drop_overlay()\n"
    )
    calls = [("repro.x", f, c) for f, c in _calls_in_functions(tree)]
    journaled = [ast.unparse(c.args[0]) for _, _, c in calls if _journals_a_store(c)]
    assert journaled == ["self.store._data", "self._data"] * len(_record_methods())
    assert sorted(_appends_undo("repro.x", tree)) == [
        "repro.x: self.journal._undo",
        "repro.x: self.journal._undo.append((setitem, m, k, v))",
        "repro.x: undo_log.append(entry)",
    ]
    assert _appends_undo(_JOURNAL_MODULE, tree) == []
    assert _overlay_offenders(calls) == [
        "repro.x:Keeper.write.open_overlay",
        "repro.x:helper.merge_overlay",
        "repro.x:helper.drop_overlay",
    ]
