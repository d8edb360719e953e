"""Validator sets and Tendermint's proposer-priority rotation.

The rotation algorithm is the real one: every height each validator's
priority increases by its voting power, the validator with the highest
priority proposes, and the proposer's priority is decreased by the total
power.  With equal powers this degenerates to round-robin; with unequal
powers proposal frequency is proportional to power — both properties are
covered by tests.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import SimulationError
from repro.sim.records import dataclass
from repro.tendermint.crypto import PrivateKey, PublicKey, hash_value, new_keypair


@dataclass
class Validator:
    """A consensus validator: identity plus voting power."""

    name: str
    private_key: PrivateKey
    public_key: PublicKey
    power: int = 10
    proposer_priority: int = 0

    @property
    def address(self) -> str:
        return self.public_key.address

    @classmethod
    def named(cls, name: str, power: int = 10) -> "Validator":
        priv, pub = new_keypair(name)
        return cls(name=name, private_key=priv, public_key=pub, power=power)


class ValidatorSet:
    """An ordered set of validators with proposer rotation."""

    def __init__(self, validators: Iterable[Validator]):
        self.validators = list(validators)
        if not self.validators:
            raise SimulationError("validator set cannot be empty")
        addresses = [v.address for v in self.validators]
        if len(set(addresses)) != len(addresses):
            raise SimulationError("duplicate validator addresses")
        self._by_address = {v.address: v for v in self.validators}

    @classmethod
    def with_names(cls, names: Iterable[str], power: int = 10) -> "ValidatorSet":
        return cls(Validator.named(name, power=power) for name in names)

    def __len__(self) -> int:
        return len(self.validators)

    def __iter__(self):
        return iter(self.validators)

    @property
    def total_power(self) -> int:
        return sum(v.power for v in self.validators)

    def quorum_power(self) -> int:
        """Smallest power strictly greater than 2/3 of the total."""
        return self.total_power * 2 // 3 + 1

    def by_address(self, address: str) -> Optional[Validator]:
        return self._by_address.get(address)

    def hash(self) -> bytes:
        return hash_value(
            [{"addr": v.address, "power": v.power} for v in self.validators]
        )

    # -- proposer rotation ----------------------------------------------------

    def advance_proposer(self) -> Validator:
        """Run one rotation step and return the new proposer.

        Implements Tendermint's proposer-priority algorithm:
        ``priority += power`` for everyone, then the max-priority validator
        proposes and pays ``total_power``.  Ties break by address for
        determinism.
        """
        for validator in self.validators:
            validator.proposer_priority += validator.power
        proposer = max(
            self.validators, key=lambda v: (v.proposer_priority, v.address)
        )
        proposer.proposer_priority -= self.total_power
        return proposer

    def proposer_for_round(self, base_proposer: Validator, round_: int) -> Validator:
        """Proposer for a retry round: rotate forward from the round-0 one.

        Real Tendermint re-runs the priority update per round; rotating by
        index preserves the fairness property we need for timeout testing
        while keeping round-0 behaviour exact.
        """
        if round_ == 0:
            return base_proposer
        index = self.validators.index(base_proposer)
        return self.validators[(index + round_) % len(self.validators)]
