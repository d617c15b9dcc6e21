"""Experiment configuration: one JSON document, one parse path.

A config names a set of copulas, fixes the marginal, the sample sizes, the
perturbations of interest, the master seed with its replication count, and an
output directory.  Derived copulas are addressed as ``name@pi<alpha>`` or
``name@m<alpha>``, the convex shift of the named base toward independence or
toward the comonotone copula.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

from .chains import Marginal, Normal, Uniform01
from .copulas import Convex, Copula, Fgm, Frechet, M, from_dict, perturb_m, perturb_pi, to_dict
from .errors import ConfigError, CopulamixError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Perturbation:
    """A convex shift kind ('pi' or 'm') with its weight alpha."""

    kind: str
    alpha: float

    def __post_init__(self) -> None:
        if self.kind not in ("pi", "m"):
            raise ConfigError(f"perturbation kind must be 'pi' or 'm', got {self.kind!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"perturbation alpha must lie in [0, 1], got {self.alpha!r}")

    @property
    def suffix(self) -> str:
        return f"{self.kind}{self.alpha:g}"

    def apply(self, c: Copula) -> Copula:
        """The shifted copula (1 - alpha) C + alpha Pi, or with M for kind 'm'."""
        return perturb_pi(c, self.alpha) if self.kind == "pi" else perturb_m(c, self.alpha)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproducible experiment run needs."""

    copulas: tuple
    marginal: Marginal
    sizes: tuple
    perturbations: tuple
    seed: int
    replications: int
    outputs: str

    def __post_init__(self) -> None:
        if not self.copulas:
            raise ConfigError("config must declare at least one copula")
        if not self.sizes:
            raise ConfigError("config must declare at least one sample size")
        names = [name for name, _ in self.copulas]
        if len(set(names)) != len(names):
            raise ConfigError("copula names must be unique")
        for name in names:
            # '@' starts a perturbation suffix in resolve, and a name becomes
            # part of an output file name
            if any(ch in name for ch in "@/\\"):
                raise ConfigError(f"copula name {name!r} must not contain '@', '/' or '\\'")
        # a suffix names the figure files of its perturbation
        suffixes = [p.suffix for p in self.perturbations]
        if len(set(suffixes)) != len(suffixes):
            raise ConfigError(f"perturbations must have distinct suffixes, got {suffixes}")
        if self.replications < 1:
            raise ConfigError("replication count must be at least 1")

    @property
    def names(self) -> tuple:
        return tuple(name for name, _ in self.copulas)

    def base(self, name: str) -> Copula:
        for key, spec in self.copulas:
            if key == name:
                return spec
        raise ConfigError(f"no copula named {name!r} in the config")

    def resolve(self, name: str) -> Copula:
        """Look up a declared name, or a derived one like 'fgm@pi0.4'."""
        if "@" not in name:
            return self.base(name)
        base_name, _, suffix = name.partition("@")
        spec = self.base(base_name)
        if suffix.startswith("pi"):
            kind, alpha_text = "pi", suffix[2:]
        elif suffix.startswith("m"):
            kind, alpha_text = "m", suffix[1:]
        else:
            raise ConfigError(f"unknown perturbation suffix {suffix!r} in {name!r}")
        try:
            alpha = float(alpha_text)
        except ValueError:
            raise ConfigError(f"bad perturbation weight in {name!r}") from None
        return Perturbation(kind, alpha).apply(spec)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "copulas": {name: to_dict(spec) for name, spec in self.copulas},
            "marginal": self.marginal.to_dict(),
            "sizes": list(self.sizes),
            "perturbations": [{"kind": p.kind, "alpha": p.alpha} for p in self.perturbations],
            "seed": self.seed,
            "replications": self.replications,
            "outputs": self.outputs,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"


def _marginal_from_dict(d) -> Marginal:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("marginal must be an object with a 'kind' field")
    kind = d["kind"]
    if kind == "uniform":
        return Uniform01()
    if kind == "normal":
        try:
            return Normal(float(d["mu"]), float(d["sigma"]))
        except KeyError as exc:
            raise ConfigError(f"normal marginal needs field {exc}") from None
    raise ConfigError(f"unknown marginal kind {kind!r}")


def _whole(x) -> int:
    """``x`` as an int when it is a whole number; a bool, a string or a fraction is an error."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or x != int(x):
        raise ConfigError(f"expected a whole number, got {x!r}")
    return int(x)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build the config."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    copulas_doc = doc.get("copulas")
    if not isinstance(copulas_doc, dict) or not copulas_doc:
        raise ConfigError("config needs a nonempty 'copulas' object")
    try:
        copulas = tuple((name, from_dict(spec)) for name, spec in copulas_doc.items())
        marginal = _marginal_from_dict(doc.get("marginal", {"kind": "uniform"}))
        sizes = tuple(_whole(n) for n in doc.get("sizes", []))
        perturbations = tuple(
            Perturbation(str(p.get("kind")), float(p.get("alpha")))
            for p in doc.get("perturbations", [])
        )
        seed = _whole(doc.get("seed", 0))
        replications = _whole(doc.get("replications", 1))
        outputs = str(doc.get("outputs", "results"))
    except ConfigError:
        raise
    except (CopulamixError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if any(n < 1 for n in sizes):
        raise ConfigError("sample sizes must be positive")
    return ExperimentConfig(
        copulas=copulas,
        marginal=marginal,
        sizes=sizes,
        perturbations=perturbations,
        seed=seed,
        replications=replications,
        outputs=outputs,
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def default_study_config() -> ExperimentConfig:
    """The built-in study: four dependent designs around theta = 0.6, alpha = 0.4.

    Declares the FGM copula, its shift toward the comonotone copula, the
    one-parameter Frechet copula, and the Frechet convexly combined with FGM,
    all with a Normal(30, 1) marginal at sizes 100 to 20000.
    """
    theta = 0.6
    alpha = 0.4
    fgm = Fgm(theta)
    frechet = Frechet(theta)
    return ExperimentConfig(
        copulas=(
            ("fgm", fgm),
            ("fgm_m", Convex((1.0 - alpha, alpha), (fgm, M))),
            ("frechet", frechet),
            ("frechet_fgm", Convex((1.0 - alpha, alpha), (frechet, fgm))),
        ),
        marginal=Normal(30.0, 1.0),
        sizes=(100, 5000, 10000, 20000),
        perturbations=(Perturbation("pi", 0.4), Perturbation("m", 0.7)),
        seed=20260825,
        replications=200,
        outputs="results",
    )
