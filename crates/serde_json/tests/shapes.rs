//! Pins the JSON text of every shape the derives and the container impls
//! produce, compact and pretty, against literal strings: the writer may
//! change how it produces the text, never the text itself.

use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i64, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(i32),
    Tuple(u8, bool),
    Struct { a: i64, b: Option<String> },
}

/// A named struct whose `tag` is left out while it holds its default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Tagged {
    id: u64,
    #[serde(default, skip_default)]
    tag: u32,
    last: bool,
}

/// Serializes through a different representation (`into`/`from`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(into = "TempRepr", from = "TempRepr")]
struct Temp {
    tenths: i64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TempRepr {
    degrees: i64,
    tenths: i64,
}

impl From<Temp> for TempRepr {
    fn from(t: Temp) -> TempRepr {
        TempRepr { degrees: t.tenths / 10, tenths: t.tenths % 10 }
    }
}

impl From<TempRepr> for Temp {
    fn from(r: TempRepr) -> Temp {
        Temp { tenths: r.degrees * 10 + r.tenths }
    }
}

/// A fixed hash, so the map's iteration order is the same on every run
/// (and, for the keys below, not their sorted order).
#[derive(Default)]
struct Fixed(u64);

impl Hasher for Fixed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

type FixedMap = HashMap<i64, String, BuildHasherDefault<Fixed>>;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Doc {
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    empty: Empty,
    shapes: Vec<Shape>,
    at_default: Tagged,
    off_default: Tagged,
    temp: Temp,
    none: Option<u8>,
    some: Option<u8>,
    no_items: Vec<i32>,
    no_pairs: BTreeMap<String, u8>,
    by_pair: BTreeMap<(u8, i32), char>,
    hashed: FixedMap,
    big: u64,
    small: i64,
    floats: Vec<f64>,
    text: String,
}

fn doc() -> Doc {
    let hashed: FixedMap =
        [(9, "nine"), (10, "ten"), (-1, "minus one"), (300, "three hundred"), (2, "two")]
            .into_iter()
            .map(|(k, v)| (k, v.to_string()))
            .collect();
    Doc {
        unit: Unit,
        newtype: Newtype(7),
        pair: Pair(-3, "p".to_string()),
        empty: Empty {},
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(-4),
            Shape::Tuple(255, true),
            Shape::Struct { a: 1, b: None },
            Shape::Struct { a: 2, b: Some("b".to_string()) },
        ],
        at_default: Tagged { id: 1, tag: 0, last: false },
        off_default: Tagged { id: 2, tag: 5, last: true },
        temp: Temp { tenths: 215 },
        none: None,
        some: Some(4),
        no_items: Vec::new(),
        no_pairs: BTreeMap::new(),
        by_pair: [((2, -1), 'x'), ((1, 5), 'é')].into_iter().collect(),
        hashed,
        big: u64::MAX,
        small: i64::MIN,
        floats: vec![3.0, -2.0, 0.5, 0.1, 1.5e-7, 123456789.25, 1e15, 4.5e18],
        text: "q\" b\\ n\n r\r t\t nul\0 bs\u{8} ff\u{c} us\u{1f} del\u{7f} é ✓".to_string(),
    }
}

const COMPACT: &str = concat!(
    r#"{"unit":null,"newtype":7,"pair":[-3,"p"],"empty":{},"shapes":["Unit",{"Newtype":-4},{"Tuple":[255,true]},{"Struct":{"a":1,"b":null}},{"Struct":{"a":2,"b":"b"}}],"at_default":{"id":1,"last":false},"off_default":{"id":2,"tag":5,"last":true},"temp":{"degrees":21,"tenths":5},"none":null,"some":4,"no_items":[],"no_pairs":[],"by_pair":[[[1,5],"é"],[[2,-1],"x"]],"hashed":[[-1,"minus one"],[10,"ten"],[2,"two"],[300,"three hundred"],[9,"nine"]],"big":18446744073709551615,"small":-9223372036854775808,"floats":[3.0,-2.0,0.5,0.1,0.00000015,123456789.25,1000000000000000,4500000000000000000],"text":"q\" b\\ n\n r\r t\t nul\u0000 bs\u0008 ff\u000c us\u001f del"#,
    "\u{7f}",
    r#" é ✓"}"#
);

const PRETTY: &str = concat!(
    r#"{
  "unit": null,
  "newtype": 7,
  "pair": [
    -3,
    "p"
  ],
  "empty": {},
  "shapes": [
    "Unit",
    {
      "Newtype": -4
    },
    {
      "Tuple": [
        255,
        true
      ]
    },
    {
      "Struct": {
        "a": 1,
        "b": null
      }
    },
    {
      "Struct": {
        "a": 2,
        "b": "b"
      }
    }
  ],
  "at_default": {
    "id": 1,
    "last": false
  },
  "off_default": {
    "id": 2,
    "tag": 5,
    "last": true
  },
  "temp": {
    "degrees": 21,
    "tenths": 5
  },
  "none": null,
  "some": 4,
  "no_items": [],
  "no_pairs": [],
  "by_pair": [
    [
      [
        1,
        5
      ],
      "é"
    ],
    [
      [
        2,
        -1
      ],
      "x"
    ]
  ],
  "hashed": [
    [
      -1,
      "minus one"
    ],
    [
      10,
      "ten"
    ],
    [
      2,
      "two"
    ],
    [
      300,
      "three hundred"
    ],
    [
      9,
      "nine"
    ]
  ],
  "big": 18446744073709551615,
  "small": -9223372036854775808,
  "floats": [
    3.0,
    -2.0,
    0.5,
    0.1,
    0.00000015,
    123456789.25,
    1000000000000000,
    4500000000000000000
  ],
  "text": "q\" b\\ n\n r\r t\t nul\u0000 bs\u0008 ff\u000c us\u001f del"#,
    "\u{7f}",
    r#" é ✓"
}"#
);

#[test]
fn hashed_map_iterates_out_of_sorted_order() {
    let keys: Vec<i64> = doc().hashed.keys().copied().collect();
    let mut sorted = keys.clone();
    sorted.sort_by_key(|k| format!("{k:?}"));
    assert_ne!(keys, sorted, "the fixed hash should scramble the keys");
}

#[test]
fn compact_text_is_pinned() {
    let json = serde_json::to_string(&doc()).unwrap();
    assert_eq!(json, COMPACT);
}

#[test]
fn pretty_text_is_pinned() {
    let json = serde_json::to_string_pretty(&doc()).unwrap();
    assert_eq!(json, PRETTY);
}

#[test]
fn text_round_trips() {
    let d = doc();
    for json in [serde_json::to_string(&d).unwrap(), serde_json::to_string_pretty(&d).unwrap()] {
        assert_eq!(serde_json::from_str::<Doc>(&json).unwrap(), d);
    }
}

#[test]
fn value_trees_write_the_same_text() {
    let d = doc();
    let tree: Value = d.serialize();
    assert_eq!(tree.get("newtype"), Some(&Value::Int(7)));
    assert_eq!(tree.get("big"), Some(&Value::UInt(u64::MAX)));
    assert_eq!(serde_json::to_string(&tree).unwrap(), serde_json::to_string(&d).unwrap());
    assert_eq!(
        serde_json::to_string_pretty(&tree).unwrap(),
        serde_json::to_string_pretty(&d).unwrap()
    );
}
