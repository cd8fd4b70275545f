"""Versioned on-disk container for simulator states.

A snapshot is a single ``.npz`` archive holding a JSON header plus one array
per charge block: every bond spectrum under ``bond{k}/{charge}`` and every
right-canonical site block B = Gamma lambda under ``site{k}/{left};{right}``.
A vectorized operator is stored in the mirror gauge of ``chain``: the blocks
of charge (b, a) are the conjugated copies of those of (a, b). Format 3 is
the first with that gauge. Older formats are not read: format 1 stored the
Vidal Gamma blocks, and a format-2 operator, written without the gauge,
would evolve wrongly under the current update. The header records the format
version, whether the state is a pure state or a vectorized operator, its
local dimension (always num_photons + 1; a header that says otherwise is
rejected), its norm scale and its discarded weight. Older builds also wrote
a ``sector`` key for post-selected operators and a ``loss`` key with the
transmissivity of lossy ones; both are ignored on load, because the stored
bond-0 charges already carry any post-selection and the loss acted when rho
was prepared. Arrays are stored in their native binary form, which makes
save/load round trips bit-exact and resumed evolutions identical to
uninterrupted ones.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .mpo import MpoState
from .mps import MpsState

__all__ = ["FORMAT_NAME", "FORMAT_VERSION", "save_state", "load_state", "load_header"]

FORMAT_NAME = "bosonet-state"
FORMAT_VERSION = 3


def _charge_token(charge: Any) -> str:
    if isinstance(charge, tuple):
        return ",".join(str(int(c)) for c in charge)
    return str(int(charge))


def _parse_charge(token: str, paired: bool) -> Any:
    if paired:
        ket, bra = token.split(",")
        return (int(ket), int(bra))
    return int(token)


def save_state(
    path: str | Path,
    state: MpsState | MpoState,
    extra: dict[str, Any] | None = None,
) -> None:
    """Write a state snapshot atomically; ``extra`` must be a JSON-serializable dict."""
    if isinstance(state, MpoState):
        kind = "mpo"
    elif isinstance(state, MpsState):
        kind = "mps"
    else:
        raise TypeError(f"cannot snapshot object of type {type(state).__name__}")
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "num_modes": state.num_modes,
        "num_photons": state.num_photons,
        "local_dim": state.local_dim,
        "norm_scale": state.norm_scale,
        "discarded_weight": state.discarded_weight,
        "extra": extra or {},
    }
    arrays: dict[str, np.ndarray] = {"header": np.array(json.dumps(header))}
    for k, bond in enumerate(state.bonds):
        for charge, lam in bond.items():
            arrays[f"bond{k}/{_charge_token(charge)}"] = lam
    for k, blocks in enumerate(state.sites):
        for (cl, cr), mat in blocks.items():
            arrays[f"site{k}/{_charge_token(cl)};{_charge_token(cr)}"] = mat
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write beside the target and rename over it, so a save that dies partway
    # leaves the previous snapshot readable.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_header(path: str | Path) -> dict[str, Any]:
    """Read and validate only the JSON header of a snapshot."""
    with np.load(path, allow_pickle=False) as data:
        if "header" not in data.files:
            raise ValueError(f"{path}: not a state snapshot (missing header)")
        header = json.loads(str(data["header"][()]))
    if header.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: unknown container format {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported snapshot version {header.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return header


def _field(path: str | Path, header: dict[str, Any], name: str,
           convert: Callable[[Any], Any]) -> Any:
    """``convert(header[name])``; a missing or malformed field is a ``ValueError``."""
    try:
        return convert(header[name])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: bad snapshot header field {name!r}: {exc!r}") from None


def _finite(value: Any) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def load_state(path: str | Path) -> tuple[MpsState | MpoState, dict[str, Any]]:
    """Rebuild a state from a snapshot; returns ``(state, extra)``.

    A header field that is missing or of the wrong type raises ``ValueError``
    naming the field, like every other malformed snapshot; so does a
    ``norm_scale`` or ``discarded_weight`` that is not finite. A member that
    is not a finite float or complex array raises it too, as do a bond with
    no member, a bond member that is not a nonempty 1-D array of positive
    reals (the ``chain`` readers trust neither to occur), and a site block
    whose charges or shape do not fit its bonds.
    """
    header = load_header(path)
    paired = _field(path, header, "kind", {"mps": False, "mpo": True}.__getitem__)
    num_modes = _field(path, header, "num_modes", int)
    num_photons = _field(path, header, "num_photons", int)
    local_dim = _field(path, header, "local_dim", int)
    if local_dim != num_photons + 1:
        raise ValueError(
            f"{path}: local_dim {local_dim} does not match "
            f"{num_photons} photons (expected {num_photons + 1})"
        )
    bonds: list[dict[Any, np.ndarray]] = [{} for _ in range(num_modes + 1)]
    sites: list[dict[tuple[Any, Any], np.ndarray]] = [{} for _ in range(num_modes)]
    site_members = []
    with np.load(path, allow_pickle=False) as data:
        for key in data.files:
            if key == "header":
                continue
            prefix, _, token = key.partition("/")
            if prefix.startswith("bond"):
                blocks, charge = bonds, _parse_charge(token, paired)
            elif prefix.startswith("site"):
                left, right = token.split(";")
                blocks, charge = sites, (_parse_charge(left, paired), _parse_charge(right, paired))
            else:
                raise ValueError(f"{path}: unexpected snapshot member {key!r}")
            k = int(prefix[4:])
            if not 0 <= k < len(blocks):
                raise ValueError(f"{path}: member {key!r} lies outside num_modes {num_modes}")
            member = blocks[k][charge] = data[key]
            if member.dtype.kind not in "fc" or not np.isfinite(member).all():
                raise ValueError(f"{path}: member {key!r} is not a finite float or "
                                 "complex array")
            if blocks is sites:
                site_members.append((key, k, charge))
            elif (member.ndim != 1 or member.dtype.kind != "f" or not member.size
                  or member.min() <= 0):
                raise ValueError(f"{path}: member {key!r} is not a nonempty positive 1-D array")
    if {} in bonds:
        raise ValueError(f"{path}: bond {bonds.index({})} holds no charge")
    for key, k, (cl, cr) in site_members:
        if cl not in bonds[k] or cr not in bonds[k + 1]:
            raise ValueError(f"{path}: member {key!r} has a charge its bonds do not hold")
        shape = (len(bonds[k][cl]), len(bonds[k + 1][cr]))
        if sites[k][(cl, cr)].shape != shape:
            raise ValueError(f"{path}: member {key!r} has shape {sites[k][(cl, cr)].shape}, "
                             f"its bonds give {shape}")
    fields = dict(num_modes=num_modes, num_photons=num_photons, sites=sites, bonds=bonds,
                  norm_scale=_field(path, header, "norm_scale", _finite),
                  discarded_weight=_field(path, header, "discarded_weight", _finite))
    return (MpoState if paired else MpsState)(**fields), _field(path, header, "extra", dict)
