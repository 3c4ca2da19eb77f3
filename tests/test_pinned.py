"""Byte pins: the sweep JSON and the CLI's --json reports may not drift.

Each digest is the sha256 of output recorded from a known-good build.  Any
change to a verdict, witness, detail, part or layout changes a digest.
Update one only for an intended output change, and record why in CHANGES.md.
This file is the one place a report's bytes are pinned.
"""

import hashlib
import json

import pytest
import subjects

from ehresmann import zoo
from ehresmann.category import category_of
from ehresmann.cli import main, run_command
from ehresmann.fileformat import category_file, emit_structure, semigroup_file
from ehresmann.sweep import _enumerated_record, run_sweep

SWEEP_3 = "eba66f7150dc7720742dba68d975684fb3ee4f6fdbb04f79ef454d64f281f582"

# the 1,708 labelled size-4 records, as json.dumps(..., sort_keys=True)
SWEEP_4_RECORDS = "f400cd203754ea96998a81a165a105870dcfe82d182d115181ec7c3a8ac6eb60"

COMMANDS = {
    "check": ("check",),
    "cat --biaction": ("cat", "--biaction"),
    "cat --two-orders": ("cat", "--two-orders"),
    "esn": ("esn",),
    "orders --count-only": ("orders", "--count-only"),
}

SUBJECTS = list(zoo.SWEEP_NAMES) + ["orderless-band", "pt-3"]

# what `ehresmann ARGV` writes to stdout (sweep's raw document, every other
# command's wrapped report), by its command line: the exit code and the
# sha256 of the bytes.  A report echoes argv in "command", so the flag order
# is part of the bytes.  First each command of COMMANDS on each of SUBJECTS,
# then rel-3 (the 512 binary relations on 3 points under inclusion) through
# the ladder, every default law, the category builds, the two-order law,
# OC6 with the biaction and the ESN round trip, then the e-order of pt-3,
# the size-4 sweep and the size-4 and size-3 enumerations.
CLI = {
    "check example://two-element-monoid --json": (1, "0c664def62821d0f019e0bf7f3dc0bd9083cf257e6e3d76b739afa562b4379f7"),
    "cat example://two-element-monoid --biaction --json": (0, "574e9c31d42ac8fb4313f0263a2b547c540642926214140bdfe43e2c10df13c5"),
    "cat example://two-element-monoid --two-orders --json": (0, "2f2f378d5af78d344c58851dff13f11caed94f4d0d30e35936f73c2d7b5aa070"),
    "esn example://two-element-monoid --json": (0, "0d12b564b7545a5d35dfeb9de6ffe0721996e5469d509fb1cf0978a1838cd2a0"),
    "check example://zero-one-nabla --json": (1, "e75f4706a09d0f8fff25c402f77d426ee757893a542d59d097eb962a83879541"),
    "cat example://zero-one-nabla --biaction --json": (0, "e3f323d6d119c2a21ca33bd4c697a9c5e3bd1df9d9190861aeff9ae7b0e2d44b"),
    "cat example://zero-one-nabla --two-orders --json": (0, "787e7dea57e9cfaa9831545df3d77e5fdd6548f4cd738bca8e2838dabd81433c"),
    "esn example://zero-one-nabla --json": (0, "672fc4e5cc64eadb27111060ed762f76385e829e1098c984e49028e17d32343e"),
    "check example://rel-1 --json": (0, "af978c96e70b5ec9739b60520e1a1fc6d24401033cd72afd3bc386a826921c76"),
    "cat example://rel-1 --biaction --json": (0, "5e813aebf9dd92bbae2b5ea280c2829b40dfe24602c09dc13885efa2b5b56630"),
    "cat example://rel-1 --two-orders --json": (0, "d3ec1dd788146089df83993ce567223681348a5d6f66fc05423d20f4b4218b2e"),
    "esn example://rel-1 --json": (0, "4a53f2b38f2f54b41588638caf23ae930e91c60649636047f051b2e81965f00f"),
    "check example://rel-2 --json": (1, "459737290b82e8574faba4392d6d71ce58e57f16fa931e75dc1ac1a3389d22c1"),
    "cat example://rel-2 --biaction --json": (0, "24f46ed972cefaaf0efa44315e5265fb85694256369a3f9d96b048067e2200ca"),
    "cat example://rel-2 --two-orders --json": (0, "c94a274e01d80a033920dec5ad7734ca72c2f2ce0e71fb1ecf6136d3e7f1ef24"),
    "esn example://rel-2 --json": (0, "869e6ab98fb352b99dbec41612b56fbd3cca6aa33e212b19801dd162eac8988b"),
    "check example://pt-1 --json": (0, "82dad82a455976ba77d38e935a230a6d4e456882bb3ad30bffd5b719cc72da62"),
    "cat example://pt-1 --biaction --json": (0, "3af1377a74703c7e91f56aed7f444506827073bebfb339e645c32a0098da18a9"),
    "cat example://pt-1 --two-orders --json": (0, "1695d50894222b519a23b88183416d48ef65ddb9465f4b9b53d6b4aa69a0d63d"),
    "esn example://pt-1 --json": (0, "19159988c5aa43031bc12deb7c4e7a623b0fb500d11d6ee1b7f603b3f0b81de4"),
    "check example://pt-2 --json": (1, "2d7e5ed6bb365e110388f749da651c681fc60467dfc6cca4503c5c6408630628"),
    "cat example://pt-2 --biaction --json": (0, "b6aaf15f50a606166fc51054a085c6348b3e4b002a530a586215ce2d53cd2468"),
    "cat example://pt-2 --two-orders --json": (0, "18c79731ac69f178db9aeee2d3072c514ffe8f6ac59ebf07037fbfb35afaaef4"),
    "esn example://pt-2 --json": (0, "c0f86213af742b3a9670e53d74188a73424923ccca3a5394b861aa45e9d72c0d"),
    "check example://inj-1 --json": (0, "6f86a380ef4e3ecd399d43895ee290d63d09089eeb07fba265c437fd1571ab00"),
    "cat example://inj-1 --biaction --json": (0, "22e214d09e13a9b5e060733e570587df1392579f2eba030a44ad0e3b282dc1c2"),
    "cat example://inj-1 --two-orders --json": (0, "ac125e6868e806eb60d95f5c2843715c8719e3997c5a907c06e156399b7dbe34"),
    "esn example://inj-1 --json": (0, "b672f1c8a452aafb79a51f2456bf14d908b7aae8a5b8a5f25fa2e5d0f399b708"),
    "check example://inj-2 --json": (0, "81c030cc625aaf30a9319ab2ef366065d74390d66ae207845ca953a19f580e70"),
    "cat example://inj-2 --biaction --json": (0, "9254074276c3ab6fc6c14fa48ef40fd09a2125bbce48fe2bb8759135a0778a0d"),
    "cat example://inj-2 --two-orders --json": (0, "17f937cc27489b3b8c287df52acfa299d00bfd3935918a849474e8634f686d76"),
    "esn example://inj-2 --json": (0, "12f2d715797dee977baf0e7b12f47fa10d01406caa57a0d461373dc7de3f46d3"),
    "check example://orderless-band --json": (1, "25b192c33486e06da32aac6010466fd95ed7d55ab591a7489c5090a9a90ec43a"),
    "cat example://orderless-band --biaction --json": (2, "9170d338a6c9b5466f3e76d81fd4d124eeb632a9c5df6bd4d436b97574a52e8b"),
    "cat example://orderless-band --two-orders --json": (0, "2fb259fe951b5a23de181ef36b6aed5de3277affe63c84ea5c8a0fcb2f4e3151"),
    "esn example://orderless-band --json": (2, "70a48523829aec6ad6a9d74219e12b51b277e24672d9a859204661818e0bb489"),
    "check example://pt-3 --json": (1, "86214b72d2af86b2f89cf23b10054d718292042d19967a5584d044cfecfe16bc"),
    "cat example://pt-3 --biaction --json": (0, "6a526f02fd7a583d61d0b352edac16b78699598bf140ffbffd24ef81e3f26d09"),
    "cat example://pt-3 --two-orders --json": (0, "739e8fe7aaa678b1d68add91d8c567fa3356e931f0a03e40a4b2d557e9577a2c"),
    "esn example://pt-3 --json": (0, "4dad43ee73ed1540b2fe0820a9c50d5795c7a58c0ce9b3ea219383343ef453f8"),
    "orders example://pt-3 --count-only --json": (0, "b15189e15da8299e847f65e054b0fa63187b80cdcaf91db5f62aa02a3c936fbf"),
    "orders example://two-element-monoid --count-only --json": (0, "2129f0d244169c5e026163a9393034f9189c280c14cb9829670a32f6c522d506"),
    "orders example://zero-one-nabla --count-only --json": (0, "fbf0cd571a8481f36498da3bc2c6dc07bae85e5affcdc267c24b7f3859dbd48c"),
    "orders example://rel-1 --count-only --json": (0, "60fb91598bb0777ad6836b311fbb5a5a6c25afdc8efca7bcde2fc55c7b28e0ae"),
    "orders example://rel-2 --count-only --json": (0, "f34a6c3bf2ec83f04aae829c54a8ff9493fa779d651199567c9ce52277e13583"),
    "orders example://pt-1 --count-only --json": (0, "f7fed2a5a2600e9fe2dfb774b8f5c1e1b8ba1de4289fa1d6614f84875d8f3c06"),
    "orders example://pt-2 --count-only --json": (0, "9fce9bf57ab63f9ad09a7602bc3a72439a8243d611fa742d97423afe059898df"),
    "orders example://inj-1 --count-only --json": (0, "c892156a45ea704dfc7c5d6edff3dece5ad3bbbffbd6a1293fb26a31c7279a70"),
    "orders example://inj-2 --count-only --json": (0, "509ad45cbb46c19ff4a22c94013ea9b12d5b57f8d46197dcd9a0eeecbe160348"),
    "orders example://orderless-band --count-only --json": (0, "ffeee301e3b2408a026d6f845715322542d53f3aa0968630e52f0eca1a4dd2db"),
    "check example://rel-3 --law ehresmann --json": (0, "872f559ff9bb2aac72a13de33fa41e391335952b6b2cd2b3b7c4f11ba28f1160"),
    "check example://rel-3 --json": (1, "10ab825289cbf1df33e17d219fc8bbe736359743761b592f6034c5ea1da20420"),
    "cat example://rel-3 --check omega-structured --json": (0, "9d9053b928bdd04ea524845d06f2bb10eef2b206a1212d684fe74d0e2e7b55f3"),
    "cat example://rel-3 --two-orders --json": (0, "332bb83e759d1d2caf8300768afd4e53ad09efc9891688b937b3292091d1d837"),
    "cat example://rel-3 --check oc6 --biaction --json": (0, "ca09d50a1ecc7e143ba21d85ded65a8440270bfe8f3e83f34b9016592c062c77"),
    "esn example://rel-3 --json": (0, "c19c765a2b640de5ab559bf1c6c347dbfefe02b0cf9a57c2a0f87321ea5af5fa"),
    "derive example://pt-3 --order e --json": (0, "601ebdef16fdbe06f915659c13c2217a47e96fc3b34c3d744df9e33d5b7107ac"),
    "sweep --max-size 4 --allow-large --json": (0, "ac42e94258319db087cbc9e9a752ed57d62e1ba8119c813114842dc9aa599239"),
    "enumerate --size 4 --allow-large --json": (0, "395aa1a18a75be7aa42c148656c9a99a1ddf75f921401a244d579de2784b51af"),
    "enumerate --size 4 --allow-large --up-to-iso --json": (0, "757c158d10bb6e7afef9711528b58a6fd068e8381d66cde2ab30cdb89d8de8c9"),
    "enumerate --size 3 --filter restriction --json": (0, "f611d64769bd69617b87c4a230dfb7f98ccbb092f0786f542b966cb4c1b895d5"),
}

# the same reports on category files: C(S) of each SWEEP_NAMES entry under its
# first order, emitted to a file, with "command" (the file's path) left out
CATEGORY_COMMANDS = ("check", "cat --biaction", "esn")

CATEGORY_REPORTS = {
    ("check", "two-element-monoid"): "50af2c0696826fd6c511bd9fd29cde94eaa056a2ba95c87e275cb7f1f9b88e54",
    ("cat --biaction", "two-element-monoid"): "36896b9bd46bc75c0ea84e40b9142b8001aa506bce513fb234a0ee440432de11",
    ("esn", "two-element-monoid"): "d7b802362663cfd56c90ccc74917319cb83c1c75726dbd48d00cf600877c40d3",
    ("check", "zero-one-nabla"): "76d0919b18ecca944bbb040ce236d2d20a83bbf9294eeb19d4ae1b6653a7fce3",
    ("cat --biaction", "zero-one-nabla"): "71efe55756b740ddf4eef9f34dcef4b7831ccb9de8b61ea4d436015e46a7ae0c",
    ("esn", "zero-one-nabla"): "8c528105003607ef8b95418b857199c7a17ffb003d623348e0b77bdca1e17cca",
    ("check", "rel-1"): "210f891c7e96d2ed57fea5e27c5cee1b3d75468b30e35c5f93fa125a6a05b366",
    ("cat --biaction", "rel-1"): "a33c9cb654b6a5d29c0067c5aaae254bb6358dfaa15afd1a49fe847a4d0557fe",
    ("esn", "rel-1"): "bc09d6dd123fa3fc58650459aadfb9c1b7a1fe56ccd5c486573fc3c7cbee86f2",
    ("check", "rel-2"): "161647ad90b92375f2fe35cf8230555c44100640075fd0042bc1ee8004c9595f",
    ("cat --biaction", "rel-2"): "f55cce4c314745be9d2b5d6d30941d6918e286f6e70e2ab4910048f5d4a92026",
    ("esn", "rel-2"): "595d81784163ddd1bb3c8bd079d13325ab227ec7b9965323c8d9d6240a8c68fb",
    ("check", "pt-1"): "3c99834b99fb43bf6917d518ad7b6bffa8987e3addeb3a13bb84e3a205eb5a39",
    ("cat --biaction", "pt-1"): "e5553ee967bf8f1f780fb60185c31cf1edd9ef87e13f13daf3adf8c9bf5d9671",
    ("esn", "pt-1"): "e0edd3a27ded3d38d00f54b17e9db28be8f4f86c7b1097913431a270fa244734",
    ("check", "pt-2"): "9bacd5f57801d09b5b4c89abba8671bdaeca6e61bac5982decb81984864c3d7a",
    ("cat --biaction", "pt-2"): "509edc44bb88e999b5509fe9ec6ac2674581bcc3fc6a0fe3deb1f837fe7582ec",
    ("esn", "pt-2"): "8fadbbf86905dd9be061c8240b38e29ec95c9d40a5d5bb2c4f24404b6686f08a",
    ("check", "inj-1"): "3c99834b99fb43bf6917d518ad7b6bffa8987e3addeb3a13bb84e3a205eb5a39",
    ("cat --biaction", "inj-1"): "e5553ee967bf8f1f780fb60185c31cf1edd9ef87e13f13daf3adf8c9bf5d9671",
    ("esn", "inj-1"): "e0edd3a27ded3d38d00f54b17e9db28be8f4f86c7b1097913431a270fa244734",
    ("check", "inj-2"): "87ae8f0c1e3959e7a5c61de9aee820d6c70f905e1a11468d7f89e6da2c4bb29d",
    ("cat --biaction", "inj-2"): "df555b035a2d1dc63a26776d3a13244dca347448ffcb565f435109aaf464bd6c",
    ("esn", "inj-2"): "495bcacc30181dc7d6033207e090ce8ec2a9847dd32ea9dd12b22738bd55a8c1",
}

# emit_structure of each catalogued entry under each of its orders in turn
# (with no order when it has none), concatenated; inj-3 is
# gen_partial_injections(3), built but not catalogued
EMITTED = {
    "two-element-monoid": "53071528160b46bc4b2e5cfb2adec264db650295ce5de0531c11ebaad1fb3477",
    "orderless-band": "d2fe51ac564efd3a86aff82db421d361459215983e1d73d3646d3c12fc6a6dc4",
    "zero-one-nabla": "8483ec6e4ff44310bebae49a4c4b45c4a413a221564ac25fa2b93310562d9a0b",
    "rel-1": "42b4c4452a11275f8b5f6267c16e852284537c1959575471f50e137c9245fed8",
    "rel-2": "e1f7a971cd67c13e7beb5ca9c59fc0ced288b299db23f732aa4858048001b9ae",
    "rel-3": "771d8d05b7935ef5dd3d8fe01f5e1169490c559bf18e8724b9fe82533e3b92bd",
    "pt-1": "2cb905a89834051c7e7c8b197077918b453f9bd4cb5ef5047daed3d6f6abde1c",
    "pt-2": "6a44c4e7df4e2a8d38f366a26a7c8a7c012abc60526c6736f07550c97f063129",
    "pt-3": "e6e4589fa2a1d55956f466d76ba7a0c9807ff0dfa99fa90e70367c0db52990d3",
    "inj-1": "2cb905a89834051c7e7c8b197077918b453f9bd4cb5ef5047daed3d6f6abde1c",
    "inj-2": "76385b6a2366fde8af3454fc26cf901decf53af08ac625a0983615e52c5eb254",
    "inj-3": "becd80eafcdf4dc82a8b10d0fd52a077d48fb9191ff539fbe3f16c2974b73eaa",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_subject_and_command_is_pinned():
    # each command of COMMANDS on each of SUBJECTS, then the 11 rows after them
    lines = {
        " ".join((cmd, f"example://{name}", *flags, "--json")) for cmd, *flags in COMMANDS.values() for name in SUBJECTS
    }
    assert lines <= CLI.keys() and len(CLI) == len(lines) + 11


def test_sweep_json_is_pinned():
    assert digest(json.dumps(run_sweep(max_size=3), sort_keys=True, indent=2)) == SWEEP_3


def test_size_4_sweep_records_are_pinned():
    # the op the benchmark's sweep-n4 times, each record decided in its own evaluation
    records = [_enumerated_record((f"n4-{i:04d}", s)) for i, s in enumerate(subjects.labelled(4))]
    assert len(records) == 1708
    assert digest(json.dumps(records, sort_keys=True)) == SWEEP_4_RECORDS


@pytest.mark.parametrize("line", CLI)
def test_cli_json_report_is_pinned(capsys, line):
    code = main(line.split())
    assert (code, digest(capsys.readouterr().out)) == CLI[line]


def test_every_category_file_and_command_is_pinned():
    assert set(CATEGORY_REPORTS) == {(label, name) for label in CATEGORY_COMMANDS for name in zoo.SWEEP_NAMES}


@pytest.mark.parametrize("label,name", sorted(CATEGORY_REPORTS))
def test_category_file_json_report_is_pinned(tmp_path, label, name):
    path = tmp_path / f"{name}.txt"
    path.write_text(emit_structure(category_file(category_of(zoo.get(name).ordered()))), encoding="utf-8")
    cmd, *flags = COMMANDS[label]
    payload = json.loads(run_command([cmd, str(path), *flags, "--json"]).to_json())
    del payload["command"]
    assert digest(json.dumps(payload, sort_keys=True, indent=2)) == CATEGORY_REPORTS[(label, name)]


def test_every_catalogued_entry_is_emitted_and_pinned():
    assert set(EMITTED) == {*zoo.names(), "inj-3"}


@pytest.mark.parametrize("name", sorted(EMITTED))
def test_emitted_entry_is_pinned(name):
    entry = zoo.gen_partial_injections(3) if name == "inj-3" else zoo.get(name)
    orders = [order for _, order in entry.orders] or [None]
    text = "".join(emit_structure(semigroup_file(entry.structure, order)) for order in orders)
    assert digest(text) == EMITTED[name]
