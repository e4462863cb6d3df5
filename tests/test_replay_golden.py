"""Golden replay: fixed-seed runs must keep producing the same logs.

Each case runs ``execute_run`` once and hashes the record fingerprints, the
header, the warnings and the incumbent (or, for a run that aborts, the error
type and message) into one sha256 digest.  The digests below were recorded
before the engine was rewritten around a single ask/tell loop; any change to
candidate order, rng consumption, cache accounting, phase tags or fallback
warnings shows up as a mismatch.

The objectives are plain-Python polynomials, so the digests do not depend
on the platform's libm.  The importance fit behind the wrs cases does depend
on numpy's floating-point summation.

To print fresh digests after an intended change of logs:

    PYTHONPATH=src:tests python tests/test_replay_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from wrsopt.engine import EngineError, RngBundle, RunConfig, execute_run
from wrsopt.objectives import ObjectiveFailure
from wrsopt.samplers import NelderMeadSampler
from wrsopt.triallog import record_fingerprint

from _util import int_space, mixed_space, python_objective

SPACES = {"mixed": mixed_space, "int": lambda: int_space(4, low=0, high=5)}
CATS = ("relu", "tanh", "gelu")


def _coords(values) -> list[float]:
    return [float(CATS.index(v)) if isinstance(v, str) else float(v) for v in values]


def _poly(values) -> float:
    x = _coords(values)
    return sum((i + 1) * xi - 0.25 * (i + 2) * xi * xi + 0.01 * xi * xi * xi for i, xi in enumerate(x))


def _flaky(values) -> float:
    if int(round(float(values[1]))) % 3 == 0:
        raise ObjectiveFailure("exit 3")
    return _poly(values)


def _constant(values) -> float:
    return 1.5


def _broken(values) -> float:
    raise ObjectiveFailure("exit 1")


OBJECTIVES = {"poly": _poly, "flaky": _flaky, "constant": _constant, "broken": _broken}

CONFIGS = {
    "rs": dict(strategy="rs", budget=37),
    "sobol": dict(strategy="sobol", budget=37),
    "nm": dict(strategy="nelder-mead", budget=37, sampler_options=(("init_step", 0.2),)),
    "pso": dict(strategy="pso", budget=37),
    "pso-swarm5": dict(strategy="pso", budget=37, sampler_options=(("swarm", 5.0),)),
    "wrs": dict(strategy="wrs", budget=37, init=14),
    "wrs-init0": dict(strategy="wrs", budget=25, init=0),
    "wrs-init1": dict(strategy="wrs", budget=25, init=1),
    "wrs-init3": dict(strategy="wrs", budget=25, init=3),
    "wrs-star": dict(strategy="wrs", budget=37, init=10, prob_overrides=(("*", 0.3),)),
    "wrs-named": dict(strategy="wrs", budget=37, init=10, prob_overrides=(("DIM1", 0.5),)),
    "wrs-star-full": dict(strategy="wrs", budget=37, init=10, prob_overrides=(("*", 0.4), ("DIM1", 1.0))),
    "wrs-kmin": dict(strategy="wrs", budget=37, init=10, kmin_overrides=(("*", 14),)),
}


# Nelder-Mead runs with non-default coefficients that reach a degenerate
# simplex (the sampler's converged state) inside their budget, so the
# digest also pins the re-emission of the best vertex after convergence.
CONVERGING_NM = {
    "nm-a1.5-r0.25": dict(strategy="nelder-mead", budget=300, sampler_options=(("alpha", 1.5), ("rho", 0.25))),
    "nm-a2-r0.25": dict(
        strategy="nelder-mead", budget=400, sampler_options=(("alpha", 2.0), ("rho", 0.25), ("init_step", 0.2))
    ),
}
CONVERGING_NM_CASES = [
    ("mixed", "poly", "nm-a1.5-r0.25", 0),
    ("mixed", "poly", "nm-a1.5-r0.25", 1),
    ("mixed", "flaky", "nm-a1.5-r0.25", 1),
    ("mixed", "constant", "nm-a1.5-r0.25", 0),
    ("mixed", "poly", "nm-a2-r0.25", 0),
    ("int", "flaky", "nm-a2-r0.25", 0),
]


def _config(name: str, space_name: str, seed: int) -> RunConfig:
    kwargs = dict(CONFIGS[name] if name in CONFIGS else CONVERGING_NM[name])
    dim1 = SPACES[space_name]().names[1]
    for key in ("prob_overrides", "kmin_overrides"):
        if key in kwargs:
            kwargs[key] = tuple((dim1 if n == "DIM1" else n, v) for n, v in kwargs[key])
    return RunConfig(seed=seed, **kwargs)


def _cases() -> list[tuple[str, str, str, int]]:
    out = []
    for space_name in SPACES:
        for seed in (0, 1):
            for obj in ("poly", "flaky"):
                out += [(space_name, obj, cfg, seed) for cfg in CONFIGS]
            out += [(space_name, "constant", cfg, seed) for cfg in ("wrs", "wrs-named", "rs")]
            out += [(space_name, "broken", cfg, seed) for cfg in ("wrs", "wrs-init0", "rs", "pso-swarm5")]
    return out + CONVERGING_NM_CASES


def replay_digest(space_name: str, obj: str, cfg: str, seed: int) -> str:
    space = SPACES[space_name]()
    objective = python_objective(OBJECTIVES[obj], name=obj)
    try:
        result = execute_run(space, objective, _config(cfg, space_name, seed))
    except (EngineError, ValueError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
    else:
        best = result.best
        payload = {
            "header": result.header.to_dict(),
            "records": [record_fingerprint(r) for r in result.records],
            "warnings": result.warnings,
            "best": [best.candidate, best.score, best.iteration],
        }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _case_id(case: tuple[str, str, str, int]) -> str:
    return "{}-{}-{}-s{}".format(*case)


GOLDEN = {
    "mixed-poly-rs-s0": "5a5fde6447c71813ff7d931887e60506629db01ef7d025e9370a1cc8fa130140",
    "mixed-poly-sobol-s0": "4165df8d4f98211b39b3fa42c03d403dd623cb9d1e143c981c5088fb2717cf2c",
    "mixed-poly-nm-s0": "588c8963419578025b134d951f4c551c68957b595170c5e12609465645cbc3ba",
    "mixed-poly-pso-s0": "f9503363b93810a01de6b8c93a96d9e6d54e056255541ee87d0c9ab347aed7bd",
    "mixed-poly-pso-swarm5-s0": "c56b9f05d55edb11b0817320eb58b4da9f4da295174520d79a2ca4a2964f98c7",
    "mixed-poly-wrs-s0": "743566d109735ae90936c72691081b6480d8d8cfbbae2b149aff0e301d228dbb",
    "mixed-poly-wrs-init0-s0": "b13bebac8b58c3cfd19fb6b2e3324f07a9225de6891973decd140f0bb4e80371",
    "mixed-poly-wrs-init1-s0": "1b57aa2cb4a23cbca33eb8f218a32c5033453e0187a2f5901f65c999b0d2a6a3",
    "mixed-poly-wrs-init3-s0": "f0e0368f55e8c2dec97c95045b3dfdf4fee3ec388a8bae3f8f30012d5e1c9ac7",
    "mixed-poly-wrs-star-s0": "d9b99e0394ca6c8b344004b03489ec1b91bfc24e38587e455b221c9b846af34c",
    "mixed-poly-wrs-named-s0": "764b90bffd3e9a0137f1d9b8b82e214c842399232016480b1de0cb050b60e96a",
    "mixed-poly-wrs-star-full-s0": "7a3dadc2664c5ac336abecf9df2512227c800a749cd59484861fcbf8134e3b9e",
    "mixed-poly-wrs-kmin-s0": "1860c7fa30cbe6d61b8224d6c30aaae4cf373baa9462523e2e0222ec7838a182",
    "mixed-flaky-rs-s0": "35241fd4a0e7c60a4665e211be150063fa32d18e15f25052bd552d280f212ea6",
    "mixed-flaky-sobol-s0": "0bde227985f3d3e231991a5ced05d377c07d3db68865b21c88002cbdc252911f",
    "mixed-flaky-nm-s0": "6fad75330fa790c26b771bde5e6621ec9585aa12232fdf80b2d0d07c5528c425",
    "mixed-flaky-pso-s0": "2a9bab49630979d22f206a7a9aa4f2fdf39eac3859191cc97435b18ca1e3a6a8",
    "mixed-flaky-pso-swarm5-s0": "1899299ec0d09e3c7dc7414183f7ce1d1d248d1e3dceb8b1275c056722c08de1",
    "mixed-flaky-wrs-s0": "8429460b130326951949d1b1e8aa4d7f490d50bbfd5b09ea564b4182d1b73c51",
    "mixed-flaky-wrs-init0-s0": "f53bd4c24a6b36d6954ed4b99bf0045fc234035e49ccfe4fde4df0cb66b3de72",
    "mixed-flaky-wrs-init1-s0": "448a3cee206bed97b57047316b842ea6cf77676f41a604e0ba26473894ce02fc",
    "mixed-flaky-wrs-init3-s0": "daae1b5626c63a98e0ffdff4805bb32f6aca0ac33e65c48585978d5813edf5fc",
    "mixed-flaky-wrs-star-s0": "d9b99e0394ca6c8b344004b03489ec1b91bfc24e38587e455b221c9b846af34c",
    "mixed-flaky-wrs-named-s0": "547095eaa514c90b4e967e0fe3e4086c8f7829f2e0709de36624fdd0caf58522",
    "mixed-flaky-wrs-star-full-s0": "761c546ecc4155d6ab8930f0b67aaf66c80a474d0c8f3a13e6a2a69286eb5765",
    "mixed-flaky-wrs-kmin-s0": "c324c4b49cfb411f44112e306a026744a3d7e7defdf6bf1932c4c59ab831548f",
    "mixed-constant-wrs-s0": "5639799b04d694299b508d1c1c4dba92322a02e4b06d9f0d1c4d09d229941e10",
    "mixed-constant-wrs-named-s0": "2e2fe9f7789a1d82d424ead0d5053fafa066471fa5c10980267a1189e5ff67f3",
    "mixed-constant-rs-s0": "2a45962f28e6b774ffd921052b24d71ec9a8c5694ea2b42dd641e7235d48b907",
    "mixed-broken-wrs-s0": "ed5d3551e93c0889d03e0676285aa6c27698e77dae134c77bc49aacef4ce699e",
    "mixed-broken-wrs-init0-s0": "2898c3f593ead7836326bc11bfcaba724a2034ed1e0b1c12aaccb8da369cd8ce",
    "mixed-broken-rs-s0": "256e417f887720ecc9b93ff4a7424b7cbbdcf6ecd43f3751d56c9bd4b6c890f9",
    "mixed-broken-pso-swarm5-s0": "2898c3f593ead7836326bc11bfcaba724a2034ed1e0b1c12aaccb8da369cd8ce",
    "mixed-poly-rs-s1": "33596a3884516ae664c73aa00ba1a016b4c08dec9fa64161c45f6b6a49f16f89",
    "mixed-poly-sobol-s1": "59e8863039d7a9540cd78ca6b90652658ba6dee6730e3505ee5762d374264880",
    "mixed-poly-nm-s1": "c843523567d4201860726e358eb50f374143440f9a79efd0e13502c23e00ac6b",
    "mixed-poly-pso-s1": "119ad0ca09b7a494a32fa8f937b402dfb9df3c91f4d1c1422a9be9df55fe5717",
    "mixed-poly-pso-swarm5-s1": "e6c25d03c1392c15e00927bb20632f794e76aa11ab48aa616eb14af0897ddebb",
    "mixed-poly-wrs-s1": "a505e49a81d4668f63011c17a89aef7b597743723536372379f2844009d9f713",
    "mixed-poly-wrs-init0-s1": "e14e0eb3cf6671ee40ee6d328e6a8dc1a749b5d425a7801ca00433c348fbc8e7",
    "mixed-poly-wrs-init1-s1": "741d626fa76cd332f14c1acfb5aeca100a0da8fb32b8fd65edd6996582553105",
    "mixed-poly-wrs-init3-s1": "20da5d0bd70727397ffdc07a0aa33162eb8bcf2f9131c3cf94097fb934f954fe",
    "mixed-poly-wrs-star-s1": "d9b99e0394ca6c8b344004b03489ec1b91bfc24e38587e455b221c9b846af34c",
    "mixed-poly-wrs-named-s1": "3616a98899b4129bbc363a78b3fa40c297141ee8220148f87cff6a20fb34827b",
    "mixed-poly-wrs-star-full-s1": "8a34d7ede6bf996874c4ec64a77997b1a27fcd96d85262a9cb3e892659f8922e",
    "mixed-poly-wrs-kmin-s1": "c7c1649b0210f2d305e70855200ed4899425cc06dff950a26fba31e8f84c8019",
    "mixed-flaky-rs-s1": "d4a0e2bc71729389469d9f6f50f94103e0a0c74ab8e648fbf0eec789ce9d3eb5",
    "mixed-flaky-sobol-s1": "9fb1e5f06441811e5210d324cc102bfdb0accb82edb1aae857730ca13620b6c6",
    "mixed-flaky-nm-s1": "0dd4a2b0873f9494d1ca1984ad5c47df52411989e6989da524f262fde24a1a46",
    "mixed-flaky-pso-s1": "c61af51e0ad6717df29df93de0d32f8a9c237957a5dee7581b7258affe211038",
    "mixed-flaky-pso-swarm5-s1": "f0c1a97a3a136d35d688af3fe116efb436ed990585cd421aca45788e3fc20dbb",
    "mixed-flaky-wrs-s1": "a3c0a489d617b6fb0ff7afcaf34bf2f878e78ffa13fb275aaf31a3ba53528cb0",
    "mixed-flaky-wrs-init0-s1": "7ae7f4699e50198567e3b4d19dc87ad6d4e2237de7b9c909908acc6ea8a00409",
    "mixed-flaky-wrs-init1-s1": "8cb856f7b48aadbbae08e7fc3cd7fbe8a7e9c6302a8c2050f5a087fe288150b8",
    "mixed-flaky-wrs-init3-s1": "68cb5baea3a59ff709e675f60badd11ff9dd4cff3c81cbefb136251aa8af2f89",
    "mixed-flaky-wrs-star-s1": "d9b99e0394ca6c8b344004b03489ec1b91bfc24e38587e455b221c9b846af34c",
    "mixed-flaky-wrs-named-s1": "5fd4384e42cd2f8e0f1f23601f4996daf78ca2bec7b6fa52d079e498f5077b9b",
    "mixed-flaky-wrs-star-full-s1": "a8a4396b0cef0b5f271e37a9197921eb5b5d32c9d5ef67f59169d588f5e83cd2",
    "mixed-flaky-wrs-kmin-s1": "fcca6d7d9c1072fa0f3f844a5fef0f7786f57d0636c0a4c9cf99be5a12675bdf",
    "mixed-constant-wrs-s1": "e8b956dcca928dc6f59f7fa46b4d58b9da329ed7476e4f561b952382c2823efe",
    "mixed-constant-wrs-named-s1": "a8202e556af78ce5e27633b687388e5cbac546be174c747ce76ef056a907a14d",
    "mixed-constant-rs-s1": "3da3a718c391cc20ff088efbaa0abe8a7e509c4d17edf9bc67b528d478f2fd09",
    "mixed-broken-wrs-s1": "ed5d3551e93c0889d03e0676285aa6c27698e77dae134c77bc49aacef4ce699e",
    "mixed-broken-wrs-init0-s1": "2898c3f593ead7836326bc11bfcaba724a2034ed1e0b1c12aaccb8da369cd8ce",
    "mixed-broken-rs-s1": "256e417f887720ecc9b93ff4a7424b7cbbdcf6ecd43f3751d56c9bd4b6c890f9",
    "mixed-broken-pso-swarm5-s1": "2898c3f593ead7836326bc11bfcaba724a2034ed1e0b1c12aaccb8da369cd8ce",
    "int-poly-rs-s0": "417238599cbd1bd7ef1278aa0023d823031dfa5365870151a64fb0f4cf838e03",
    "int-poly-sobol-s0": "2443ccb678449fd5d734741762e5607bda48c86097d6e9bebf5e569e9f5d8ea5",
    "int-poly-nm-s0": "d02d9665cf0953e104095e96dbcd56b2488b2be04affe7f442040bac4899b4e3",
    "int-poly-pso-s0": "b6efff67df78b9f985ad428ce87a8099d40221fcabe8af49bd45e4bc39a51a3c",
    "int-poly-pso-swarm5-s0": "2907d1fd0b5fbe171408c7892e9027fde272fb2b2ae218ff08547ff1427f2394",
    "int-poly-wrs-s0": "bf323215c92aa12b9b86215adb4937a088e11d83f4b4ff8648ffa7d693fed1a0",
    "int-poly-wrs-init0-s0": "0ff62a1fcaf201198367a27d6b1a1de2ae65f7b931aee338d2a2dff3d5f823ba",
    "int-poly-wrs-init1-s0": "45d9bffe3fae18961765740729b733f735433ee07a85baab15c6cd4cc55e0e62",
    "int-poly-wrs-init3-s0": "1550ad0042cd682d813b5ea15c86036e391ad0fbe2a2a7dbcd54f9841df468ab",
    "int-poly-wrs-star-s0": "d9b99e0394ca6c8b344004b03489ec1b91bfc24e38587e455b221c9b846af34c",
    "int-poly-wrs-named-s0": "4d3843f6f0b96eb0c08a275a1b6007c0b16387be7bf3075d3e74d05613d1e756",
    "int-poly-wrs-star-full-s0": "67a6ee75252c35ec1267e02009af54bc3828d68aab8312460eed6fee636c0b50",
    "int-poly-wrs-kmin-s0": "762966ffb20654f64400802a9071392dbb30db71da7b277325dbc2660b7a998e",
    "int-flaky-rs-s0": "7a5eaf4e2804c64e1acfebd85483819bb65a7a6af5819cc59bc7633198ecc6f7",
    "int-flaky-sobol-s0": "dacf778ff00c02ab1c80e3cd20051da451c44ce7023748c0db6272bd1af979a9",
    "int-flaky-nm-s0": "7f391fd72a7abd4d80577e9804ed8c56c5177b42e55f6156088d533986f76808",
    "int-flaky-pso-s0": "c4086278f5f4d724707c96e7a67c3b6b1ea218d61868706771c0fba124358c87",
    "int-flaky-pso-swarm5-s0": "550fd4bfc541f180d0b9016f5b0235cf7fd5ed0de4cec39738b9a1d2d56e810f",
    "int-flaky-wrs-s0": "60b8b0faead91ae441bf9a9456b9d2f4e9f7785f444f8176e9478ad2d8d01a25",
    "int-flaky-wrs-init0-s0": "b24b5cdde7f6df9c37abdf8cd35482ed1c01804318736e98560fc21d00a0e393",
    "int-flaky-wrs-init1-s0": "38039bc2c459236c912992c005a7e93b5db83d5301c00000c75bbcc6335648e0",
    "int-flaky-wrs-init3-s0": "66e462144be84d3ccf86dbd8e2b5c8d82b167ab3dd31b9536972529a2cd5b31c",
    "int-flaky-wrs-star-s0": "d9b99e0394ca6c8b344004b03489ec1b91bfc24e38587e455b221c9b846af34c",
    "int-flaky-wrs-named-s0": "e87cbd8d6c869fb4b079f96cbae37657279c7b4d0a323b7679e8e3e5bba8302a",
    "int-flaky-wrs-star-full-s0": "41f8202cfa6cb41f1c6f31aaf351f54ab781c8fc4305a9bf7978eb0676860f2b",
    "int-flaky-wrs-kmin-s0": "a2d4c79b88c5bc1aa22435705b007f599cb22286e54225c2c590578854bad6c0",
    "int-constant-wrs-s0": "e01134814fd526e0e8bb946265876bed65390f344b7ff6a984c1e910625b0b3b",
    "int-constant-wrs-named-s0": "ec601b91c607995941c3e482a1ae29fc0026a33b2439b08cff7ee078ce9e64fd",
    "int-constant-rs-s0": "bc08e243ef4491ba1f920d15d7c05b3875118922c4f7c3bf3e13281e01786a64",
    "int-broken-wrs-s0": "ed5d3551e93c0889d03e0676285aa6c27698e77dae134c77bc49aacef4ce699e",
    "int-broken-wrs-init0-s0": "2898c3f593ead7836326bc11bfcaba724a2034ed1e0b1c12aaccb8da369cd8ce",
    "int-broken-rs-s0": "256e417f887720ecc9b93ff4a7424b7cbbdcf6ecd43f3751d56c9bd4b6c890f9",
    "int-broken-pso-swarm5-s0": "2898c3f593ead7836326bc11bfcaba724a2034ed1e0b1c12aaccb8da369cd8ce",
    "int-poly-rs-s1": "df5d67810b768598053a978958df86cc6d168dc66c0afbf988decbe33efe904a",
    "int-poly-sobol-s1": "5459b770185b90e78ef51beab440027235eeb2b9a39ca4558337a8e19e43e811",
    "int-poly-nm-s1": "e24c357b16ed268a4d32537b23fc0ffa813db5c3f00efe856fb9fe9e2a69ed47",
    "int-poly-pso-s1": "60dd7336ddff5ed234030263144558fecf318e569457a3bf1a79f52be9594f02",
    "int-poly-pso-swarm5-s1": "b1103dd29c5f666569e7e0529472cf0b06025ffe159c9b890b9227158de5a481",
    "int-poly-wrs-s1": "3d114e27ab2ad8aadbe94147f82497904a595ee3b03d912b973fcf002c793f99",
    "int-poly-wrs-init0-s1": "46c9de7c7d8208be25271e9600443e08a1d3dfb6d90f62a3388fb461a10e28e5",
    "int-poly-wrs-init1-s1": "9f3bbcfc5f45f10d89451f566c3c0662019ca4ebcef1a2e5e6ff36ff7d5fe69e",
    "int-poly-wrs-init3-s1": "8786f490fe9c8b2790ae3c9b83d5829dd4e280d2b98b4e40ab7a499dbf4c308d",
    "int-poly-wrs-star-s1": "d9b99e0394ca6c8b344004b03489ec1b91bfc24e38587e455b221c9b846af34c",
    "int-poly-wrs-named-s1": "4776126427c91eb08aca226f76b5b2c74919f37d6746622ebd00941d2ecb785f",
    "int-poly-wrs-star-full-s1": "638625b167dbe95a25c9af41498948c12112572820f16dcbba6ea14591df5706",
    "int-poly-wrs-kmin-s1": "9c31ddc811559b5de33fdc1d63320edc3d92b981f43fbb273ffbc01992d7447e",
    "int-flaky-rs-s1": "6e873649ae91562a561f3994656982e016654fd3092e222528dbe1f0a29682b3",
    "int-flaky-sobol-s1": "81b4b1077132f59a12c6760389b3c2ca27d31b28f08a85bf757ff610e009e544",
    "int-flaky-nm-s1": "578f4fd8655db8ea13731d4c922bd5e125a4e641cce27b982e2e349becbaf1f3",
    "int-flaky-pso-s1": "0d4c8bd2e0feaaa5ea4b2c8a29fcfef7f6dba16d74f1fefb8f992998dc5488e2",
    "int-flaky-pso-swarm5-s1": "f524daca78d0b9c3c84fc883784ae16739babdf9947145d46959fec662dfde47",
    "int-flaky-wrs-s1": "510ab61febc1df4c68442668b4f8eb9c6481d92586d6dcba63ce1b3660c67ba3",
    "int-flaky-wrs-init0-s1": "326f05104b74d8d4af72024226c168dfe897d32e9d5d805f9124241a9e3e106b",
    "int-flaky-wrs-init1-s1": "2a03505dc1c7a6c80043ea1f6dba8acff69c764d69c8e1cc500e2770dd38594a",
    "int-flaky-wrs-init3-s1": "9d002077e314a17958499a6936f66e6f2d5265374ddd062ab55d334781d08e96",
    "int-flaky-wrs-star-s1": "d9b99e0394ca6c8b344004b03489ec1b91bfc24e38587e455b221c9b846af34c",
    "int-flaky-wrs-named-s1": "ac98ec2d867428a2ca20b41f489b5cb24e9576096f6afe14cd0551aebf662577",
    "int-flaky-wrs-star-full-s1": "f859b1516e3dd63ed46e6b361d24d4398322f683d5912d1ee08828b3a3ad4058",
    "int-flaky-wrs-kmin-s1": "c1804045203da8a06c0e7615ec95a50ccb81661a76c6f1ed3117a43bfe699cce",
    "int-constant-wrs-s1": "6850a4bc1d93487561c0eb9500ca391f2f560cf2f41bd650a00a82a3c7be4086",
    "int-constant-wrs-named-s1": "6309a9394fab99365465c52d3c02e3eb6e6c517c08f3e6b67105cc7e0a55b066",
    "int-constant-rs-s1": "2ea932fe83da89a0df46c158553384a151e7c5e7b6d084ece03474d95ce21748",
    "int-broken-wrs-s1": "ed5d3551e93c0889d03e0676285aa6c27698e77dae134c77bc49aacef4ce699e",
    "int-broken-wrs-init0-s1": "2898c3f593ead7836326bc11bfcaba724a2034ed1e0b1c12aaccb8da369cd8ce",
    "int-broken-rs-s1": "256e417f887720ecc9b93ff4a7424b7cbbdcf6ecd43f3751d56c9bd4b6c890f9",
    "int-broken-pso-swarm5-s1": "2898c3f593ead7836326bc11bfcaba724a2034ed1e0b1c12aaccb8da369cd8ce",
    "mixed-poly-nm-a1.5-r0.25-s0": "c30c1736aca96cfc66fe97528c0f6302930a1e17e2ab0005e437867e50bd3447",
    "mixed-poly-nm-a1.5-r0.25-s1": "0613fa673f155ac2a1613251fa1522ac9832cdcc2d765fe2a13ff14839462efc",
    "mixed-flaky-nm-a1.5-r0.25-s1": "e36df8decd212f11101fc4e830352c6d0de4dd6cfa28002440c02681ca4f6edc",
    "mixed-constant-nm-a1.5-r0.25-s0": "d8f62d0fd1af38eae0b80f50871489270950c16f2d0cc11ca9e4602aabcd5b00",
    "mixed-poly-nm-a2-r0.25-s0": "032925f95b98e8a543ca55a24e02a6dc8d46e5ee1959396b7f4aa59f1cd05de9",
    "int-flaky-nm-a2-r0.25-s0": "bc3cb474b5c651d91b36b77a4ade2a7f45ea07b450b4240af6bcfe61644fe76b",
}


@pytest.mark.parametrize("case", _cases(), ids=_case_id)
def test_replay_matches_golden_digest(case):
    assert replay_digest(*case) == GOLDEN[_case_id(case)]


def test_phase_one_abort_message():
    objective = python_objective(_broken, name="broken")
    with pytest.raises(EngineError, match=r"^all 14 trials of the rs phase failed$"):
        execute_run(mixed_space(), objective, RunConfig(strategy="wrs", budget=37, init=14, seed=0))


@pytest.mark.parametrize("case", CONVERGING_NM_CASES, ids=_case_id)
def test_converging_nm_cases_converge_before_budget_ends(case):
    # drives the sampler as execute_run does: the run's value stream, the
    # objective's score, and -inf for a failed trial
    space_name, obj, cfg, seed = case
    config = _config(cfg, space_name, seed)
    sampler = NelderMeadSampler(SPACES[space_name](), RngBundle.from_seed(seed).values, **dict(config.sampler_options))
    for _ in range(config.budget - 10):
        values = sampler.ask()
        try:
            score = OBJECTIVES[obj](values)
        except ObjectiveFailure:
            score = float("-inf")
        sampler.tell(score)
    assert sampler.converged


def test_grid_covers_every_case():
    assert sorted(GOLDEN) == sorted(_case_id(c) for c in _cases())


if __name__ == "__main__":
    for c in _cases():
        print(f'    "{_case_id(c)}": "{replay_digest(*c)}",')
