"""Cosmos-SDK-style application layer: accounts, bank, gas, transactions,
ante handler and the Gaia application."""

from repro.cosmos.accounts import (
    AccountKeeper,
    AccountView,
    AddressIndex,
    BaseAccount,
    Wallet,
)
from repro.cosmos.app import FEE_DENOM, TRANSFER_DENOM, GaiaApp
from repro.cosmos.bank import BankKeeper, module_address
from repro.cosmos.denom import DenomRegistry, DenomTrace
from repro.cosmos.gas import GasMeter, GasSchedule
from repro.cosmos.journal import Journal
from repro.cosmos.tx import MsgSend, Tx, TxFactory, chunk_msgs

__all__ = [
    "AccountKeeper",
    "AccountView",
    "AddressIndex",
    "BankKeeper",
    "BaseAccount",
    "DenomRegistry",
    "DenomTrace",
    "FEE_DENOM",
    "GaiaApp",
    "GasMeter",
    "GasSchedule",
    "Journal",
    "MsgSend",
    "TRANSFER_DENOM",
    "Tx",
    "TxFactory",
    "Wallet",
    "chunk_msgs",
    "module_address",
]
