"""Golden outputs: the exact CSV and JSON text of small runs of every
command, and of `write_embeddings` on ids that CSV must quote. Each command
is run twice, to stdout and through ``--out``, and both must give these
bytes. A change to any byte here is a change to the output format."""

import io
import json

import pytest
from click.testing import CliRunner

from hetlab import cli, ingest
from hetlab.datasets import EmbeddingDataset, write_embeddings
from hetlab.decomposition import SubsystemEnsemble

INPUTS = {
    # label x holds three records, label y a singleton
    "emb": ("id,label,m_1,m_2,s_1,s_2\n"
            "a,x,0,0,-1,-1\n"
            "b,x,0.5,0.25,-1.5,-1\n"
            "c,x,0.25,1,-0.5,-2\n"
            "d,y,3,3,-1,-0.5\n"),
    "nb": ("id,label,m_1,m_2,s_1,s_2\n"
           "p,,0,0,-1,-1\n"
           "q,,1,0,-1.5,-1\n"
           "r,,0,2,-1,-2\n"
           "s,,4,4,-0.5,-1\n"
           "t,,1,1,-1,-1\n"),
    "asg": ("id,p_1,p_2,p_3\n"
            "a,0.5,0.5,0\n"
            "b,0.2,0.3,0.5\n"
            "c,0,0,1\n"),
}

CASES = {
    # every axis of the (h, kappa, q, u) grid has two values; q = inf and the
    # point mass kappa = inf leave fhn empty; h = 0.5 is not ultrametric
    "three-state": ["three-state-sweep", "--grid", "0.5,1", "--kappa", "4,inf",
                    "--q", "2,inf", "--u", "0.5,2"],
    # neqrqe is filled at q = 2 only, fhn is empty at q = inf
    "bmm-optimal": ["bmm-sweep", "--grid", "0.3,0.6", "--q", "2,inf"],
    "bmm-grid": ["bmm-sweep", "--tau-mode", "grid", "--grid", "0.2,0.5",
                 "--theta1", "0.4", "--q", "1,inf"],
    "rrh": ["assignments", "rrh", "{asg}", "--q", "0,2,inf"],
    # the same table read with unequal weights (see `_weighted`)
    "rrh-weighted": ["assignments", "rrh", "{asg}", "--q", "0,2,inf"],
    "decompose": ["embeddings", "decompose", "{emb}", "--q", "1,2"],
    "decompose-whole": ["embeddings", "decompose", "{emb}", "--q", "0.5", "--whole"],
    # q = inf: within is max w_i / max (w_i p_i) with p_i the peak density
    "decompose-inf": ["embeddings", "decompose", "{emb}", "--q", "2,inf"],
    "neighborhoods": ["embeddings", "neighborhoods", "{nb}", "--k", "2", "--top", "2"],
    "synth": ["embeddings", "synth", "--labels", "2", "--per-label", "2", "--nz", "2",
              "--seed", "3"],
}

# ids and labels holding each character CSV must quote
QUOTED = EmbeddingDataset(ids=("a,b", 'say "hi"', "two\nlines", "cr\rhere"),
                          labels=("x", None, "l,1", "y"),
                          means=[[0.1], [1 / 3], [2.0], [-0.5]],
                          log_var=[[-1.0], [0.25], [-2 / 3], [0.0]])


def _weighted(read):
    """``read_assignments`` with weights 1/2, 1/4, 1/4, so that lande_warning
    is set at q = 2 and q = inf."""
    def reader(stream):
        ids, ens = read(stream)
        return ids, SubsystemEnsemble(table=ens.table, weights=[0.5, 0.25, 0.25])
    return reader


def run_case(name, fmt, tmp_path, monkeypatch, out=None):
    """Run case ``name`` through the CLI; returns the click result."""
    files = {}
    for key, text in INPUTS.items():
        files[key] = str(tmp_path / f"{key}.csv")
        with open(files[key], "w", newline="") as fh:
            fh.write(text)
    if name == "rrh-weighted":
        monkeypatch.setattr(ingest, "read_assignments",
                            _weighted(ingest.read_assignments))
    args = [a.format(**files) for a in CASES[name]] + ["--format", fmt]
    if out is not None:
        args += ["--out", str(out)]
    return CliRunner().invoke(cli.main, args)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(CASES))
def test_command_output(name, fmt, tmp_path, monkeypatch):
    expected = GOLDEN[name, fmt].encode()
    res = run_case(name, fmt, tmp_path, monkeypatch)
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == expected
    out = tmp_path / "out.txt"
    res = run_case(name, fmt, tmp_path, monkeypatch, out=out)
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == b""
    assert out.read_bytes() == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_embeddings_output(fmt):
    buf = io.StringIO()
    write_embeddings(QUOTED, buf, fmt)
    assert buf.getvalue() == GOLDEN["write", fmt]


def test_json_outputs_are_strict_json():
    # RFC 8259 has no NaN or Infinity token: undefined values are null and
    # infinities the strings "inf" / "-inf"
    for (name, fmt), text in GOLDEN.items():
        if fmt == "json":
            json.loads(text, parse_constant=pytest.fail)


GOLDEN = {
    ('three-state', 'csv'): """\
# command=three-state-sweep
# b=1
# n_h=2
# n_kappa=2
# n_q=2
# n_u=2
h,b,kappa,q,u,qe,fhn,lci,rrh,metric,ultrametric
0.5,1,4,2,0.5,1.74816210402,2.91249053825,1.21652548063,2.33333333333,true,false
0.5,1,4,2,2,1.74816210402,2.91249053825,1.78987962003,2.33333333333,true,false
0.5,1,4,inf,0.5,1.74816210402,,1.14630719927,1.75,true,false
0.5,1,4,inf,2,1.74816210402,,1.48011876877,1.75,true,false
0.5,1,inf,2,0.5,1,,1,1,true,false
0.5,1,inf,2,2,1,,1,1,true,false
0.5,1,inf,inf,0.5,1,,1,1,true,false
0.5,1,inf,inf,2,1,,1,1,true,false
1,1,4,2,0.5,2.28733702946,2.84326213977,1.31902601648,2.33333333333,true,true
1,1,4,2,2,2.28733702946,2.84326213977,2.03265427156,2.33333333333,true,true
1,1,4,inf,0.5,2.28733702946,,1.22477991702,1.75,true,true
1,1,4,inf,2,2.28733702946,,1.62013268454,1.75,true,true
1,1,inf,2,0.5,1,,1,1,true,true
1,1,inf,2,2,1,,1,1,true,true
1,1,inf,inf,0.5,1,,1,1,true,true
1,1,inf,inf,2,1,,1,1,true,true
""",
    ('three-state', 'json'): """\
{
 "metadata": {
  "command": "three-state-sweep",
  "b": 1.0,
  "n_h": 2,
  "n_kappa": 2,
  "n_q": 2,
  "n_u": 2
 },
 "columns": [
  "h",
  "b",
  "kappa",
  "q",
  "u",
  "qe",
  "fhn",
  "lci",
  "rrh",
  "metric",
  "ultrametric"
 ],
 "rows": [
  [
   0.5,
   1.0,
   4.0,
   2.0,
   0.5,
   1.74816210402,
   2.91249053825,
   1.21652548063,
   2.33333333333,
   true,
   false
  ],
  [
   0.5,
   1.0,
   4.0,
   2.0,
   2.0,
   1.74816210402,
   2.91249053825,
   1.78987962003,
   2.33333333333,
   true,
   false
  ],
  [
   0.5,
   1.0,
   4.0,
   "inf",
   0.5,
   1.74816210402,
   null,
   1.14630719927,
   1.75,
   true,
   false
  ],
  [
   0.5,
   1.0,
   4.0,
   "inf",
   2.0,
   1.74816210402,
   null,
   1.48011876877,
   1.75,
   true,
   false
  ],
  [
   0.5,
   1.0,
   "inf",
   2.0,
   0.5,
   1.0,
   null,
   1.0,
   1.0,
   true,
   false
  ],
  [
   0.5,
   1.0,
   "inf",
   2.0,
   2.0,
   1.0,
   null,
   1.0,
   1.0,
   true,
   false
  ],
  [
   0.5,
   1.0,
   "inf",
   "inf",
   0.5,
   1.0,
   null,
   1.0,
   1.0,
   true,
   false
  ],
  [
   0.5,
   1.0,
   "inf",
   "inf",
   2.0,
   1.0,
   null,
   1.0,
   1.0,
   true,
   false
  ],
  [
   1.0,
   1.0,
   4.0,
   2.0,
   0.5,
   2.28733702946,
   2.84326213977,
   1.31902601648,
   2.33333333333,
   true,
   true
  ],
  [
   1.0,
   1.0,
   4.0,
   2.0,
   2.0,
   2.28733702946,
   2.84326213977,
   2.03265427156,
   2.33333333333,
   true,
   true
  ],
  [
   1.0,
   1.0,
   4.0,
   "inf",
   0.5,
   2.28733702946,
   null,
   1.22477991702,
   1.75,
   true,
   true
  ],
  [
   1.0,
   1.0,
   4.0,
   "inf",
   2.0,
   2.28733702946,
   null,
   1.62013268454,
   1.75,
   true,
   true
  ],
  [
   1.0,
   1.0,
   "inf",
   2.0,
   0.5,
   1.0,
   null,
   1.0,
   1.0,
   true,
   true
  ],
  [
   1.0,
   1.0,
   "inf",
   2.0,
   2.0,
   1.0,
   null,
   1.0,
   1.0,
   true,
   true
  ],
  [
   1.0,
   1.0,
   "inf",
   "inf",
   0.5,
   1.0,
   null,
   1.0,
   1.0,
   true,
   true
  ],
  [
   1.0,
   1.0,
   "inf",
   "inf",
   2.0,
   1.0,
   null,
   1.0,
   1.0,
   true,
   true
  ]
 ]
}
""",
    ('bmm-optimal', 'csv'): """\
# command=bmm-sweep
# tau_mode=optimal
# theta2=5
# theta3=20
# u=1
# n_grid=2
# n_q=2
theta1,theta2,theta3,q,u,tau,rrh,fhn,neqrqe,lci
0.3,5,20,2,1,0.514117877348,1.72407153358,2.01340190969,1.72413793103,1.3128932382
0.3,5,20,inf,1,0.514117877348,1.42851445277,,,1.24112964887
0.6,5,20,2,1,0.493242659645,1.92305564971,2.00800684401,1.92307692308,1.35197977581
0.6,5,20,inf,1,0.493242659645,1.66662672339,,,1.3003618275
""",
    ('bmm-optimal', 'json'): """\
{
 "metadata": {
  "command": "bmm-sweep",
  "tau_mode": "optimal",
  "theta2": 5.0,
  "theta3": 20.0,
  "u": 1.0,
  "n_grid": 2,
  "n_q": 2
 },
 "columns": [
  "theta1",
  "theta2",
  "theta3",
  "q",
  "u",
  "tau",
  "rrh",
  "fhn",
  "neqrqe",
  "lci"
 ],
 "rows": [
  [
   0.3,
   5.0,
   20.0,
   2.0,
   1.0,
   0.514117877348,
   1.72407153358,
   2.01340190969,
   1.72413793103,
   1.3128932382
  ],
  [
   0.3,
   5.0,
   20.0,
   "inf",
   1.0,
   0.514117877348,
   1.42851445277,
   null,
   null,
   1.24112964887
  ],
  [
   0.6,
   5.0,
   20.0,
   2.0,
   1.0,
   0.493242659645,
   1.92305564971,
   2.00800684401,
   1.92307692308,
   1.35197977581
  ],
  [
   0.6,
   5.0,
   20.0,
   "inf",
   1.0,
   0.493242659645,
   1.66662672339,
   null,
   null,
   1.3003618275
  ]
 ]
}
""",
    ('bmm-grid', 'csv'): """\
# command=bmm-sweep
# tau_mode=grid
# theta2=5
# theta3=20
# u=1
# n_grid=2
# n_q=2
theta1,theta2,theta3,tau,q,rrh
0.4,5,20,0.2,1,1.87742654259
0.4,5,20,0.2,inf,1.47945102189
0.4,5,20,0.5,1,1.96025431285
0.4,5,20,0.5,inf,1.66709563246
""",
    ('bmm-grid', 'json'): """\
{
 "metadata": {
  "command": "bmm-sweep",
  "tau_mode": "grid",
  "theta2": 5.0,
  "theta3": 20.0,
  "u": 1.0,
  "n_grid": 2,
  "n_q": 2
 },
 "columns": [
  "theta1",
  "theta2",
  "theta3",
  "tau",
  "q",
  "rrh"
 ],
 "rows": [
  [
   0.4,
   5.0,
   20.0,
   0.2,
   1.0,
   1.87742654259
  ],
  [
   0.4,
   5.0,
   20.0,
   0.2,
   "inf",
   1.47945102189
  ],
  [
   0.4,
   5.0,
   20.0,
   0.5,
   1.0,
   1.96025431285
  ],
  [
   0.4,
   5.0,
   20.0,
   0.5,
   "inf",
   1.66709563246
  ]
 ]
}
""",
    ('rrh', 'csv'): """\
# command=assignments-rrh
# n_records=3
# n_categories=3
q,pooled,within,between,lande_warning
0,3,2,1.5,false
2,2.66272189349,1.59574468085,1.66863905325,false
inf,2,1,2,false
""",
    ('rrh', 'json'): """\
{
 "metadata": {
  "command": "assignments-rrh",
  "n_records": 3,
  "n_categories": 3
 },
 "columns": [
  "q",
  "pooled",
  "within",
  "between",
  "lande_warning"
 ],
 "rows": [
  [
   0.0,
   3.0,
   2.0,
   1.5,
   false
  ],
  [
   2.0,
   2.66272189349,
   1.59574468085,
   1.66863905325,
   false
  ],
  [
   "inf",
   2.0,
   1.0,
   2.0,
   false
  ]
 ]
}
""",
    ('rrh-weighted', 'csv'): """\
# command=assignments-rrh
# n_records=3
# n_categories=3
q,pooled,within,between,lande_warning
0,3,2,1.5,false
2,2.97397769517,1.77514792899,1.67534076828,true
inf,2.66666666667,2,1.33333333333,true
""",
    ('rrh-weighted', 'json'): """\
{
 "metadata": {
  "command": "assignments-rrh",
  "n_records": 3,
  "n_categories": 3
 },
 "columns": [
  "q",
  "pooled",
  "within",
  "between",
  "lande_warning"
 ],
 "rows": [
  [
   0.0,
   3.0,
   2.0,
   1.5,
   false
  ],
  [
   2.0,
   2.97397769517,
   1.77514792899,
   1.67534076828,
   true
  ],
  [
   "inf",
   2.66666666667,
   2.0,
   1.33333333333,
   true
  ]
 ]
}
""",
    ('decompose', 'csv'): """\
# command=embeddings-decompose
# group_by=true
# n_records=4
# n_z=2
label,n,q,pooled,within,between,singleton
x,3,1,7.77387251131,5.31860153663,1.46163845097,false
x,3,2,5.7196957504,3.88692001464,1.47152391324,false
y,1,1,8.06776963218,8.06776963218,1,true
y,1,2,5.93593316757,5.93593316757,1,true
""",
    ('decompose', 'json'): """\
{
 "metadata": {
  "command": "embeddings-decompose",
  "group_by": true,
  "n_records": 4,
  "n_z": 2
 },
 "columns": [
  "label",
  "n",
  "q",
  "pooled",
  "within",
  "between",
  "singleton"
 ],
 "rows": [
  [
   "x",
   3,
   1.0,
   7.77387251131,
   5.31860153663,
   1.46163845097,
   false
  ],
  [
   "x",
   3,
   2.0,
   5.7196957504,
   3.88692001464,
   1.47152391324,
   false
  ],
  [
   "y",
   1,
   1.0,
   8.06776963218,
   8.06776963218,
   1.0,
   true
  ],
  [
   "y",
   1,
   2.0,
   5.93593316757,
   5.93593316757,
   1.0,
   true
  ]
 ]
}
""",
    ('decompose-whole', 'csv'): """\
# command=embeddings-decompose
# group_by=false
# n_records=4
# n_z=2
label,n,q,pooled,within,between,singleton
*,4,0.5,29.907962035,8.78093502192,3.40601108655,false
""",
    ('decompose-whole', 'json'): """\
{
 "metadata": {
  "command": "embeddings-decompose",
  "group_by": false,
  "n_records": 4,
  "n_z": 2
 },
 "columns": [
  "label",
  "n",
  "q",
  "pooled",
  "within",
  "between",
  "singleton"
 ],
 "rows": [
  [
   "*",
   4,
   0.5,
   29.907962035,
   8.78093502192,
   3.40601108655,
   false
  ]
 ]
}
""",
    ('decompose-inf', 'csv'): """\
# command=embeddings-decompose
# group_by=true
# n_records=4
# n_z=2
label,n,q,pooled,within,between,singleton
x,3,2,5.7196957504,3.88692001464,1.47152391324,false
x,3,inf,2.8598478752,1.80016273007,1.58866075129,false
y,1,2,5.93593316757,5.93593316757,1,true
y,1,inf,2.96796658379,2.96796658379,1,true
""",
    ('decompose-inf', 'json'): """\
{
 "metadata": {
  "command": "embeddings-decompose",
  "group_by": true,
  "n_records": 4,
  "n_z": 2
 },
 "columns": [
  "label",
  "n",
  "q",
  "pooled",
  "within",
  "between",
  "singleton"
 ],
 "rows": [
  [
   "x",
   3,
   2.0,
   5.7196957504,
   3.88692001464,
   1.47152391324,
   false
  ],
  [
   "x",
   3,
   "inf",
   2.8598478752,
   1.80016273007,
   1.58866075129,
   false
  ],
  [
   "y",
   1,
   2.0,
   5.93593316757,
   5.93593316757,
   1.0,
   true
  ],
  [
   "y",
   1,
   "inf",
   2.96796658379,
   2.96796658379,
   1.0,
   true
  ]
 ]
}
""",
    ('neighborhoods', 'csv'): """\
# command=embeddings-neighborhoods
# k=2
# q=1
# n_records=5
# n_z=2
kind,rank,id,label,between
high,1,s,,5.11573016537
high,2,r,,2.41325606277
low,1,p,,1.63809488605
low,2,q,,1.63809488605
""",
    ('neighborhoods', 'json'): """\
{
 "metadata": {
  "command": "embeddings-neighborhoods",
  "k": 2,
  "q": 1.0,
  "n_records": 5,
  "n_z": 2
 },
 "columns": [
  "kind",
  "rank",
  "id",
  "label",
  "between"
 ],
 "rows": [
  [
   "high",
   1,
   "s",
   null,
   5.11573016537
  ],
  [
   "high",
   2,
   "r",
   null,
   2.41325606277
  ],
  [
   "low",
   1,
   "p",
   null,
   1.63809488605
  ],
  [
   "low",
   2,
   "q",
   null,
   1.63809488605
  ]
 ]
}
""",
    ('synth', 'csv'): """\
id,label,m_1,m_2,s_1,s_2
0-0,0,19.9565419217,-25.7722474762,-1.26542284859,-1.88632798008
0-1,0,18.3892050847,-25.7885826908,-1.6087718095,-1.48325981738
1-0,1,3.89970104911,-6.34574240739,-1.71579883625,-1.35145279292
1-1,1,3.12583791605,-6.06849703851,-1.30378400333,-1.70727925099
""",
    ('synth', 'json'): """\
{
 "records": [
  {
   "id": "0-0",
   "label": "0",
   "m_1": 19.9565419217,
   "m_2": -25.7722474762,
   "s_1": -1.26542284859,
   "s_2": -1.88632798008
  },
  {
   "id": "0-1",
   "label": "0",
   "m_1": 18.3892050847,
   "m_2": -25.7885826908,
   "s_1": -1.6087718095,
   "s_2": -1.48325981738
  },
  {
   "id": "1-0",
   "label": "1",
   "m_1": 3.89970104911,
   "m_2": -6.34574240739,
   "s_1": -1.71579883625,
   "s_2": -1.35145279292
  },
  {
   "id": "1-1",
   "label": "1",
   "m_1": 3.12583791605,
   "m_2": -6.06849703851,
   "s_1": -1.30378400333,
   "s_2": -1.70727925099
  }
 ]
}
""",
    ('write', 'csv'): (
        'id,label,m_1,s_1\n'
        '"a,b",x,0.1,-1\n'
        '"say ""hi""",,0.333333333333,0.25\n'
        '"two\n'
        'lines","l,1",2,-0.666666666667\n'
        '"cr\r'
        'here",y,-0.5,0\n'
    ),
    ('write', 'json'): (
        '{\n'
        ' "records": [\n'
        '  {\n'
        '   "id": "a,b",\n'
        '   "label": "x",\n'
        '   "m_1": 0.1,\n'
        '   "s_1": -1.0\n'
        '  },\n'
        '  {\n'
        '   "id": "say \\"hi\\"",\n'
        '   "label": null,\n'
        '   "m_1": 0.333333333333,\n'
        '   "s_1": 0.25\n'
        '  },\n'
        '  {\n'
        '   "id": "two\\nlines",\n'
        '   "label": "l,1",\n'
        '   "m_1": 2.0,\n'
        '   "s_1": -0.666666666667\n'
        '  },\n'
        '  {\n'
        '   "id": "cr\\rhere",\n'
        '   "label": "y",\n'
        '   "m_1": -0.5,\n'
        '   "s_1": 0.0\n'
        '  }\n'
        ' ]\n'
        '}\n'
    ),
}
