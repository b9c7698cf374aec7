"""Every form the library emits, pinned byte for byte: the repr, the text
and the JSON of power_sum_formula(m, l) for m <= 12, l <= 40 and of
linearize(p) for p <= 60.  A change to how the forms are derived, merged or
written must leave all three unchanged, or say so by updating the pins."""

import hashlib
import json

from balsum.linearize import linearize
from balsum.summation import power_sum_formula

# sha256 over the concatenated hex digests of the forms, in the order of
# _emitted_forms.
DIGEST = "aca36247cb8f5b9b336271ade2832b80d6f942a4ae91f00f4f337c99c58fffe8"
# The first 8 hex digits of each form's digest, in the same order, to name
# the first form that changed.
PINS = (
    "8c55e8e1073ff692b2f335f5bc1ce6437d906399a9a725f8d084f852a4516221990b0895f13f79ff"
    "1b0eb00bd4a09ec31bf1a71e61794ecfaf842cadb67ea1620db12996ff3931e114ee83f08f8374ba"
    "3c2e3cb006314f64c0921ed4bec0810aee0055707a4c36873233332e261a3ec17ad11583222282cf"
    "ae0bca619073361b9a1ff6f2fd2a4cce5ebb774b7b95702bad8fe08d905d99fa34a4cfd7ecad09b5"
    "13c61a987192844bed32f76af6e82f4f9236011ec02495cfb38f7c343b6d5fab468fca50e7d74439"
    "5b1e821fb41ab3ea6e4068be9b33e9ab5df71586ce035393ac85c77317fa944c5e55eb08d916d19b"
    "1e6dd5f4c956909d0689b2cfb16b870a94916f33f6717b0ad810542409a69c6ea98c14aa1d5f3466"
    "fd4d075cc5d81177a9413312cc9e25c835a5e75e7990e5bff7ff544888b97bc94ed1914a32153329"
    "066dcc944913225805dd1086d33f807a9884b90e82fc0f73a4d2a8d5ec9545daa479a0d029e00857"
    "0fedd8d4521c7eebff4ccb361a6cf3f6eb898b168dfad3f93d0e61a162c479e7d35e9c8655e42475"
    "f580014329850ef5437af8f667e79c1766d3c7e0f38db59ac537df8b2e2fc74ce6e02ffd9b66eeb0"
    "7b8657e7fdee11c76a2555c27fe5ce8079e572733f31b6cb5600e96e7ae525a3470c81746874c4a2"
    "dd81c21f6d8f565ed1cfe54f56176e9f52f372878c9c216ccf9440ba7a74c4d2ed7b84b4bd9c4337"
    "e488fdea824e66b8b39b50af4ebcaea6766693a1d7266c8e5074435c979374a1c749863cd904edb1"
    "c9b5da70f93cacbc0143d628675fc4470483225f7ab6d4d69019a1a90be42d74eae20943322444b7"
    "8fc070aba70946f013b6c1384ef35b893a92d8f37c7fc0cbd11e3e3a1c85055ff2307b876dd19e6d"
    "db2a9c1658c03b3d7b244fb85710d23a124187be07557fecdea08f5334701ce12d18282a870f7634"
    "7f32c4a0e39e70c26c7de40319cc3de765603700ec8f442377ecee05e43e7ed18cb9970a9193c89c"
    "3950e82b8e0f91dcf4cabc57270670158c279dee86562c0ecd0b3e1c6833fa367795f3b1f26f4f00"
    "f30e607d78faced8e340fe8493f714ec375b88bb67c1db7d38f16b80c251ea20ced2740d8d5f2b5d"
    "f74daca6dd51d107fad26369734cf27c588b51884ca702aec3130015e0df68a11ae4b70cd309c62f"
    "9064686600399bbaddc11b08073f7eb3b9f7d88f818a1e0ecac3028c841c8daa7cbc16a6d84525cc"
    "f1db26003d93b61de8289d008404c00380a3f621d4594b98eb46da15fe47a0db14cbdf4f21f16785"
    "fb494c617d51c2d4d3fbf01aee33f53f4e5dfa165758de54b28b7c4824a3a25397f69d7152035208"
    "6e5e0f072299c2e00b1f66b176e40fd300348c15451f6e238c86c25e965ff057a74994d9609a6b6b"
    "ab1380776cdd02abbba61dbb14ce319eef5b4a2efe8352c304159d4a14c86c7cd655a60745edd4d8"
    "3ad429cb9e8a431ddf00805d6f037cae2a47f53aefda1762e298f1c382cba577efdf5aacaf6b3c72"
    "7f0e37c826e9dffabe2279bd34fc0e4cab6647a51fb0a849cc160cf881928a67c807771026f90ab4"
    "78ab53c5823d21a7344390024f17b73e7f83796f249045db15056576324c7648341647cc09df4c68"
    "057ce51b8bd8d440e7f2edbec4e9656100794bb151d50adc60245302cc48cd956d0726184184e15a"
    "149d61885bca9075139f2b82e4f0bb1c4624ccbd0d81470d32bd9341c7045d87401855abe14eb6eb"
    "0ffb4282d15ddf26e17f648ff7f39d8a3ed3d3144adcaa48fe4883e554f43fe29d8ef7b500cce27c"
    "f8013d078b67cc8a901896e642d007d486534ec97c475a4f30b8dea1314a708bdfeefc548e175784"
    "7b121a4e186a53f4feda8f9373f0b553d393aeb635aed1b8042905053d175d3d3edd275dfba6aff2"
    "310f2960cb600955ccb99346155565138ffca2571e6df5bfe7f0efaebff29a7819a6750bc1978139"
    "04a45cbebef0c8404570844bee0c52a44533a787d16771669cc0154b29664a2a31813ea48c583fb5"
    "6c03e6996f9c06a64b7365bbb4ca5c7f7ca3a0b93716b82dc051532f12f6d1354f9c5a89b0e90078"
    "78688620fb9f621f4d29ac63d3c807d2108b4b8f3a12bfdcd0911184d0945a64a78b664c69037e57"
    "d9420616175dccfc9939a7f5dfe444b636d19cbfe013fcb836caac17ac704ec4136e02f9dcf05968"
    "dcbd36ddb01fa411f74ddc6456aeb51f5984e889921296e3f859bc5a110302f93fcb6aa66857d6af"
    "d675c4dd5c5e4a3e4a4984419659c5ae62b4f721fcbf5173e6202cc161ec3f216221873053fc841b"
    "40b2b63cf0ddccba0508d6219db150cc3e5640db700c22472ed7a232f6dad412634b108e09dacf7e"
    "d361c49d20a56bc62d69197b267b2612ecd0c3dfe9baa3c7c4bc9354344d9ccc6de56d6e4a52135e"
    "c1d0c791c080ea352d4b42ffbd0b7c9dd5bb71e2288be425d97d4f551dc736223b730f39020555f5"
    "cd251bd52945bce2e69039a19433d1b7703ae3e88cea6febb367390cd28f3b46d8550567f6f85642"
    "ef00b5d87e25545a7e4d2a7fbfab8d32b8b666cca7253798378985d453b9e45abdd7e724d5473c9d"
    "19144ccd399e631e40e528810bfc48b0a541a3fef7c8d43f59248d75c5340885a7dd617d65363c08"
    "ab61cb85466f11571e2c75b7d5103bd1812398b365258ee1f6cbb0cbb787016d1397c61485b80b6e"
    "60e6059f53f448e2222506914c7999b89115343635a3c499a9e5fabeef9992e1c1b8230cdef29a54"
    "970423f924da8e7310d15966ebefd9885738a2a05f14b8ba5a164a3f84efc2249e1360bc689a0a0a"
    "d51f08a0f39cfbe3bbd557387d8e7aa9939d879c8537eb4f44445754e5e3b6d5e3034d5fd9f8acc3"
    "23ad39839008ff0fee3c4b9db91977746256f4836399adbc757718e805bb683bed9488c5f4556a67"
    "4ddcf7659723d405cc1e12d7693f2b5797f6a9197094050e3cce0dbe1d8296e801f3a051ba0e2ce7"
    "87e7738ebd8eab11e24efc0a4d8702737ac1c73cc2b918ae172880694ec1eeacb33d1a98ff0c6973"
)


def _emitted_forms():
    for m in range(1, 13):
        for l in range(1, 41):
            yield f"power_sum_formula({m}, {l})", power_sum_formula(m, l)
    for p in range(1, 61):
        yield f"linearize({p})", linearize(p)


def _digest(form):
    text = "\n".join([repr(form), form.render(), json.dumps(form.to_json_dict())])
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_emitted_form_is_unchanged():
    digests = [(name, _digest(form)) for name, form in _emitted_forms()]
    if hashlib.sha256("".join(d for _, d in digests).encode()).hexdigest() == DIGEST:
        return
    pins = [PINS[i : i + 8] for i in range(0, len(PINS), 8)]
    changed = [name for (name, digest), pin in zip(digests, pins) if digest[:8] != pin]
    assert not changed, f"{changed[0]} changed its repr, text or JSON ({len(changed)} forms in all)"
    raise AssertionError("the forms changed, though each matches its 8-digit pin")
